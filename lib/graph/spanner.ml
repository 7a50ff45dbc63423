(* Bounded-distance Dijkstra on a mutable adjacency structure: is there a
   path from [s] to [t] of length [<= bound]? *)
let reachable_within adj n s t bound =
  let dist = Hashtbl.create 64 in
  let heap = Heap.create n in
  Hashtbl.replace dist s 0.0;
  Heap.insert heap s 0.0;
  let found = ref false in
  let continue = ref true in
  while !continue do
    let u = Heap.pop_min_key heap in
    if u < 0 then continue := false
    else
      let d = Hashtbl.find dist u in
      if u = t then begin
        found := true;
        continue := false
      end
      else if d > bound then continue := false
      else
        List.iter
          (fun (v, w) ->
            let d' = d +. w in
            if d' <= bound then
              match Hashtbl.find_opt dist v with
              | Some d0 when d0 <= d' -> ()
              | _ ->
                Hashtbl.replace dist v d';
                Heap.insert_or_decrease heap v d')
          adj.(u)
  done;
  !found

let greedy g ~k =
  if k < 1 then invalid_arg "Spanner.greedy: need k >= 1";
  let n = Graph.n g in
  let stretch = float_of_int ((2 * k) - 1) in
  let sorted =
    Graph.edges g |> List.sort (fun (_, _, w1) (_, _, w2) -> Float.compare w1 w2)
  in
  let adj = Array.make n [] in
  let kept = ref [] in
  List.iter
    (fun (u, v, w) ->
      if not (reachable_within adj n u v (stretch *. w)) then begin
        adj.(u) <- (v, w) :: adj.(u);
        adj.(v) <- (u, w) :: adj.(v);
        kept := (u, v) :: !kept
      end)
    sorted;
  Graph.subgraph_of_edges g !kept

(* Baswana–Sen randomized (2k-1)-spanner. *)

(* (weight, neighbor) tie-break order, specialized so the hot hashtable
   scans don't go through the polymorphic comparator. Weights are finite,
   so [Float.compare]/[<] agree with the polymorphic order. *)
let wu_le w0 u0 w1 u1 = w0 < w1 || (w0 = w1 && u0 <= u1)

let wu_lt w0 u0 w1 u1 = w0 < w1 || (w0 = w1 && u0 < u1)

let compare_wuc (w1, u1, c1) (w2, u2, c2) =
  let c = Float.compare w1 w2 in
  if c <> 0 then c
  else if u1 <> u2 then Int.compare u1 u2
  else Int.compare c1 c2

let compare_int_pair (u1, v1) (u2, v2) =
  if u1 <> u2 then Int.compare u1 u2 else Int.compare v1 v2

let baswana_sen ~seed g ~k =
  if k < 1 then invalid_arg "Spanner.baswana_sen: need k >= 1";
  let n = Graph.n g in
  let st = Random.State.make [| seed; 0x6273 |] in
  let prob = float_of_int n ** (-1.0 /. float_of_int k) in
  (* Working edge set: per-vertex hashtable neighbor -> weight. *)
  let work = Array.init n (fun _ -> Hashtbl.create 4) in
  Graph.fold_edges
    (fun u v w () ->
      Hashtbl.replace work.(u) v w;
      Hashtbl.replace work.(v) u w)
    g ();
  let remove_edge u v =
    Hashtbl.remove work.(u) v;
    Hashtbl.remove work.(v) u
  in
  let spanner = ref [] in
  let keep u v = spanner := (min u v, max u v) :: !spanner in
  (* cluster.(v) = center of v's cluster, or -1 if v left the clustering. *)
  let cluster = Array.init n (fun v -> v) in
  for _phase = 1 to k - 1 do
    (* Sample surviving cluster centers. *)
    let centers = Hashtbl.create 16 in
    Array.iter
      (fun c -> if c >= 0 then Hashtbl.replace centers c ())
      cluster;
    let sampled = Hashtbl.create 16 in
    Hashtbl.iter
      (fun c () -> if Random.State.float st 1.0 < prob then Hashtbl.replace sampled c ())
      centers;
    let next_cluster = Array.make n (-1) in
    (* Vertices inside sampled clusters stay put. *)
    Array.iteri
      (fun v c -> if c >= 0 && Hashtbl.mem sampled c then next_cluster.(v) <- c)
      cluster;
    for v = 0 to n - 1 do
      if cluster.(v) >= 0 && not (Hashtbl.mem sampled cluster.(v)) then begin
        (* Least-weight edge from v to each adjacent cluster; ties by
           (weight, neighbor id) for determinism. *)
        let best = Hashtbl.create 4 in
        Hashtbl.iter
          (fun u w ->
            let c = cluster.(u) in
            if c >= 0 then
              match Hashtbl.find_opt best c with
              | Some (w0, u0) when wu_le w0 u0 w u -> ()
              | _ -> Hashtbl.replace best c (w, u))
          work.(v);
        let sampled_neighbors =
          Hashtbl.fold
            (fun c (w, u) acc -> if Hashtbl.mem sampled c then (w, u, c) :: acc else acc)
            best []
        in
        match List.sort compare_wuc sampled_neighbors with
        | [] ->
          (* No sampled neighbor cluster: keep one edge per adjacent
             cluster, then drop all of v's work edges. *)
          Hashtbl.iter (fun _c (_w, u) -> keep v u) best;
          let nbrs = Hashtbl.fold (fun u _ acc -> u :: acc) work.(v) [] in
          List.iter (remove_edge v) nbrs
        | (w_min, u_min, c_min) :: _ ->
          (* Join the nearest sampled cluster. *)
          keep v u_min;
          next_cluster.(v) <- c_min;
          (* Keep one edge to every strictly closer cluster and drop the
             edges toward those clusters and toward the joined cluster. *)
          Hashtbl.iter
            (fun c (w, u) ->
              if c <> c_min && wu_lt w u w_min u_min then keep v u)
            best;
          let to_drop =
            Hashtbl.fold
              (fun u w acc ->
                let c = cluster.(u) in
                if c >= 0
                   && (c = c_min
                      ||
                      match Hashtbl.find_opt best c with
                      | Some (wb, ub) ->
                        wu_lt wb ub w_min u_min && wu_le wb ub w u
                      | None -> false)
                then u :: acc
                else acc)
              work.(v) []
          in
          List.iter (remove_edge v) to_drop
      end
    done;
    Array.blit next_cluster 0 cluster 0 n
  done;
  (* Phase 2: vertex-cluster joining on the residual edges. *)
  for v = 0 to n - 1 do
    let best = Hashtbl.create 4 in
    Hashtbl.iter
      (fun u w ->
        let c = cluster.(u) in
        if c >= 0 then
          match Hashtbl.find_opt best c with
          | Some (w0, u0) when wu_le w0 u0 w u -> ()
          | _ -> Hashtbl.replace best c (w, u))
      work.(v);
    Hashtbl.iter
      (fun _c (_w, u) ->
        keep v u;
        remove_edge v u)
      best
  done;
  let kept = List.sort_uniq compare_int_pair !spanner in
  Graph.subgraph_of_edges g kept

let max_stretch g h =
  let dg = Apsp.compute g and dh = Apsp.compute h in
  let n = Graph.n g in
  let worst = ref 1.0 in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let a = Apsp.dist dg u v in
      if a <> infinity then begin
        let b = Apsp.dist dh u v in
        let s = b /. a in
        if s > !worst then worst := s
      end
    done
  done;
  !worst
