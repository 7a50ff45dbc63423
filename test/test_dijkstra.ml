open Util
open Cr_graph

(* Floyd–Warshall as an independent reference. *)
let floyd g =
  let n = Graph.n g in
  let d = Array.make_matrix n n infinity in
  for v = 0 to n - 1 do
    d.(v).(v) <- 0.0
  done;
  Graph.fold_edges
    (fun u v w () ->
      if w < d.(u).(v) then begin
        d.(u).(v) <- w;
        d.(v).(u) <- w
      end)
    g ();
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let t = d.(i).(k) +. d.(k).(j) in
        if t < d.(i).(j) then d.(i).(j) <- t
      done
    done
  done;
  d

let test_spt_simple () =
  let g =
    Graph.of_edges [ (0, 1, 1.0); (1, 2, 1.0); (0, 2, 5.0); (2, 3, 2.0) ]
  in
  let t = Dijkstra.spt g 0 in
  checkf "d(0,2) via 1" 2.0 t.dist.(2);
  checkf "d(0,3)" 4.0 t.dist.(3);
  checki "parent of 2" 1 t.parent.(2);
  checkb "path" true (Dijkstra.path_to t 3 = [ 0; 1; 2; 3 ])

let test_path_from () =
  let g = Generators.path 5 in
  let t = Dijkstra.spt g 4 in
  checkb "path toward root" true (Dijkstra.path_from t 0 = [ 0; 1; 2; 3; 4 ])

let test_first_port () =
  let g = Generators.cycle 6 in
  let t = Dijkstra.spt g 0 in
  (* First port toward 1 and toward 5 must differ (two directions). *)
  checkb "distinct directions" true (t.first_port.(1) <> t.first_port.(5));
  checki "first port of source" (-1) t.first_port.(0)

let test_unreachable () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  let t = Dijkstra.spt g 0 in
  checkb "unreachable infinite" true (t.dist.(2) = infinity);
  checki "settled count" 2 (Array.length t.order)

let prop_matches_floyd =
  qcheck ~count:60 "dijkstra = floyd-warshall" arb_weighted_connected_graph
    (fun g ->
      let d = floyd g in
      let ok = ref true in
      for s = 0 to Graph.n g - 1 do
        let t = Dijkstra.spt g s in
        for v = 0 to Graph.n g - 1 do
          if abs_float (t.dist.(v) -. d.(s).(v)) > 1e-6 then ok := false
        done
      done;
      !ok)

let prop_matches_bfs =
  qcheck ~count:60 "dijkstra = bfs on unit graphs" arb_connected_graph
    (fun g ->
      let ok = ref true in
      for s = 0 to min 5 (Graph.n g - 1) do
        let t = Dijkstra.spt g s in
        let b = Bfs.run g s in
        for v = 0 to Graph.n g - 1 do
          let bd = if b.dist.(v) = max_int then infinity else float_of_int b.dist.(v) in
          if t.dist.(v) <> bd then ok := false
        done
      done;
      !ok)

let prop_tree_edges_tight =
  qcheck ~count:60 "SPT parent edges are tight" arb_weighted_connected_graph
    (fun g ->
      let t = Dijkstra.spt g 0 in
      Array.for_all
        (fun v ->
          v = 0
          ||
          let p = t.parent.(v) in
          match Graph.edge_weight g p v with
          | Some w -> abs_float (t.dist.(p) +. w -. t.dist.(v)) < 1e-9
          | None -> false)
        (Array.init (Graph.n g) Fun.id))

let prop_settle_order =
  qcheck ~count:60 "settling follows (dist, id) order"
    arb_weighted_connected_graph (fun g ->
      let t = Dijkstra.spt g 0 in
      let ok = ref true in
      for i = 0 to Array.length t.order - 2 do
        let a = t.order.(i) and b = t.order.(i + 1) in
        if (t.dist.(a), a) >= (t.dist.(b), b) then ok := false
      done;
      !ok)

let prop_truncated_is_prefix =
  qcheck ~count:60 "truncated = prefix of full settle order"
    arb_weighted_connected_graph (fun g ->
      let n = Graph.n g in
      let t = Dijkstra.spt g 0 in
      let ok = ref true in
      List.iter
        (fun l ->
          let tr = Dijkstra.truncated g 0 l in
          let expect = Array.sub t.order 0 (min l n) in
          if tr.vertices <> expect then ok := false)
        [ 1; 2; n / 2; n; n + 5 ];
      !ok)

let prop_truncated_next_dist =
  qcheck ~count:60 "truncated next_dist matches the (l+1)-th distance"
    arb_weighted_connected_graph (fun g ->
      let n = Graph.n g in
      let t = Dijkstra.spt g 0 in
      let l = max 1 (n / 2) in
      let tr = Dijkstra.truncated g 0 l in
      if l >= n then tr.next_dist = None
      else tr.next_dist = Some t.dist.(t.order.(l)))

let prop_multi_source =
  qcheck ~count:60 "multi-source = min over single sources"
    arb_weighted_connected_graph (fun g ->
      let n = Graph.n g in
      let centers = [ 0; n / 2; n - 1 ] |> List.sort_uniq compare in
      let m = Dijkstra.multi_source g centers in
      let trees = List.map (fun c -> (c, Dijkstra.spt g c)) centers in
      let ok = ref true in
      for v = 0 to n - 1 do
        let best =
          List.fold_left
            (fun acc (c, t) ->
              match acc with
              | None -> Some (t.Dijkstra.dist.(v), c)
              | Some (d, c0) ->
                if t.Dijkstra.dist.(v) < d then Some (t.Dijkstra.dist.(v), c)
                else if t.Dijkstra.dist.(v) = d && c < c0 then Some (d, c)
                else acc)
            None trees
        in
        match best with
        | Some (d, c) ->
          if m.dist_to_set.(v) <> d || m.nearest.(v) <> c then ok := false
        | None -> ok := false
      done;
      !ok)

let prop_restricted_is_cluster =
  qcheck ~count:40 "restricted dijkstra settles exactly the cluster"
    arb_weighted_connected_graph (fun g ->
      let n = Graph.n g in
      let centers = [ 0; n - 1 ] |> List.sort_uniq compare in
      let m = Dijkstra.multi_source g centers in
      let apsp = Apsp.compute g in
      let ok = ref true in
      for w = 0 to n - 1 do
        let c = Dijkstra.restricted g w ~limit:(fun v -> m.dist_to_set.(v)) in
        let members = Array.to_list c.order |> List.sort_uniq compare in
        let expected =
          List.init n Fun.id
          |> List.filter (fun v -> Apsp.dist apsp w v < m.dist_to_set.(v))
        in
        if members <> expected then ok := false
      done;
      !ok)

(* --- Kernel vs an independent O(n^2) reference --- *)

(* Dijkstra without a heap: each step scans every vertex for the unsettled
   one of least (dist, id). Arcs relax in port order and only on a strict
   improvement, the kernel's documented rule, so the two must agree on
   every array: tentative entries a stopped search leaves behind, and the
   stale parents of vertices a restricted search rejected, included. *)
let reference ?(stop_at = -1) ?(count = max_int) ?limit g s =
  let n = Graph.n g in
  let dist = Array.make n infinity in
  let parent = Array.make n (-1) in
  let parent_port = Array.make n (-1) in
  let first_port = Array.make n (-1) in
  let settled = Array.make n false in
  let order = ref [] and nsettled = ref 0 in
  let least () =
    let best = ref (-1) in
    for v = 0 to n - 1 do
      if (not settled.(v)) && dist.(v) < infinity
         && (!best < 0 || dist.(v) < dist.(!best))
      then best := v
    done;
    !best
  in
  dist.(s) <- 0.0;
  let running = ref true in
  while !running && !nsettled < count do
    let u = least () in
    if u < 0 then running := false
    else if match limit with None -> true | Some f -> dist.(u) < f u then begin
      settled.(u) <- true;
      order := u :: !order;
      incr nsettled;
      List.iteri
        (fun port (v, w) ->
          let d' = dist.(u) +. w in
          if (not settled.(v)) && d' < dist.(v) then begin
            dist.(v) <- d';
            parent.(v) <- u;
            parent_port.(v) <- port;
            first_port.(v) <- (if u = s then port else first_port.(u))
          end)
        (Graph.neighbors g u);
      if u = stop_at then running := false
    end
    else dist.(u) <- infinity
  done;
  let next = match least () with -1 -> None | v -> Some dist.(v) in
  ( { Dijkstra.source = s; dist; parent; parent_port; first_port;
      order = Array.of_list (List.rev !order) },
    next )

let same_tree (a : Dijkstra.tree) (b : Dijkstra.tree) =
  a.source = b.source && a.dist = b.dist && a.parent = b.parent
  && a.parent_port = b.parent_port && a.first_port = b.first_port
  && a.order = b.order

(* Every variant, from every source, on the boxed graph and both packed
   weight widths (each has its own scan loop in the kernel). *)
let kernel_matches_reference g =
  let n = Graph.n g in
  let m = Dijkstra.multi_source g (List.sort_uniq compare [ 0; n / 2 ]) in
  let limit v = m.Dijkstra.dist_to_set.(v) in
  List.for_all
    (fun g ->
      let ws = Dijkstra.workspace n in
      let ok = ref true in
      let expect what cond = if not cond then (ok := false; Printf.eprintf "kernel differs: %s\n" what) in
      for s = 0 to n - 1 do
        let full, _ = reference g s in
        Dijkstra.with_spt ws g s (fun t -> expect "with_spt" (same_tree t full));
        List.iter
          (fun until ->
            let r, _ = reference ~stop_at:until g s in
            Dijkstra.with_spt_until ws g s ~until (fun t ->
                expect "with_spt_until" (same_tree t r)))
          [ s; (s + 1) mod n; n - 1 - s; full.order.(n - 1) ];
        let r, _ = reference ~limit g s in
        Dijkstra.with_restricted ws g s ~limit (fun t -> expect "with_restricted" (same_tree t r));
        List.iter
          (fun l ->
            let r, next = reference ~count:(max l 1) g s in
            let tr = Dijkstra.truncated_ws ws g s l in
            expect "truncated"
              (tr.vertices = r.order
              && tr.dists = Array.map (fun v -> r.dist.(v)) r.order
              && tr.parents = Array.map (fun v -> r.parent.(v)) r.order
              && tr.first_ports = Array.map (fun v -> r.first_port.(v)) r.order
              && tr.next_dist = next))
          [ 1; 2; n / 3; n ]
      done;
      !ok)
    [ g; Graph.pack g; Graph.pack ~float32:true g ]

let prop_kernel_unit_weights =
  qcheck ~count:40 "kernel = O(n^2) reference on unit weights" arb_connected_graph
    kernel_matches_reference

(* Weights in {1, 2, 3}: many equal-length paths and equal distances. *)
let prop_kernel_small_int_weights =
  qcheck ~count:40 "kernel = O(n^2) reference on weights in {1,2,3}"
    QCheck2.Gen.(
      let* g = arb_connected_graph in
      let* ws = list_repeat (List.length (Graph.edges g)) (int_range 1 3) in
      return
        (Graph.of_edges ~n:(Graph.n g)
           (List.map2 (fun (u, v, _) w -> (u, v, float_of_int w)) (Graph.edges g) ws)))
    kernel_matches_reference

(* --- Process-wide scratch --- *)

let test_scratch_returned_on_raise () =
  let lent = ref None in
  (try Dijkstra.with_scratch 20 (fun ws -> lent := Some ws; failwith "boom")
   with Failure _ -> ());
  match !lent with
  | None -> Alcotest.fail "callback never ran"
  | Some ws ->
    Dijkstra.with_scratch 20 (fun ws' ->
        checkb "the raising borrower's workspace is lent again" true (ws == ws'))

let test_scratch_larger_capacity () =
  let g =
    Generators.with_random_weights ~seed:5 ~lo:1.0 ~hi:3.0 (Generators.grid 4 6)
  in
  let n = Graph.n g in
  let fresh = Dijkstra.workspace n in
  let prefix a = Array.sub a 0 n in
  Dijkstra.with_scratch (n + 37) (fun big ->
      checkb "capacity covers the request" true (Dijkstra.workspace_capacity big >= n + 37);
      for s = 0 to n - 1 do
        Dijkstra.with_spt fresh g s (fun a ->
            Dijkstra.with_spt big g s (fun b ->
                checkb (Printf.sprintf "spt s=%d" s) true
                  (same_tree a
                     { b with dist = prefix b.dist; parent = prefix b.parent;
                       parent_port = prefix b.parent_port;
                       first_port = prefix b.first_port });
                checkb "slots past n untouched" true
                  (Array.for_all (fun d -> d = infinity)
                     (Array.sub b.dist n (Array.length b.dist - n)))));
        Dijkstra.with_spt_until fresh g s ~until:(n - 1) (fun a ->
            Dijkstra.with_spt_until big g s ~until:(n - 1) (fun b ->
                checkb (Printf.sprintf "until s=%d" s) true
                  (a.order = b.order && a.dist = prefix b.dist
                  && a.parent = prefix b.parent)))
      done)

let suite =
  [
    case "simple weighted spt" test_spt_simple;
    case "path_from walks to the root" test_path_from;
    case "first ports distinguish directions" test_first_port;
    case "unreachable vertices" test_unreachable;
    prop_matches_floyd;
    prop_matches_bfs;
    prop_tree_edges_tight;
    prop_settle_order;
    prop_truncated_is_prefix;
    prop_truncated_next_dist;
    prop_multi_source;
    prop_restricted_is_cluster;
    prop_kernel_unit_weights;
    prop_kernel_small_int_weights;
    case "scratch returns to the free list when the callback raises"
      test_scratch_returned_on_raise;
    case "larger scratch gives the same trees" test_scratch_larger_capacity;
  ]
