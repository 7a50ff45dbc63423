(* Classified batched deltas and the dirty-region ("cone") bounds the
   substrate invalidation uses to decide what survives a topology change.

   The two primitives:

   - [spt_affected]: an exact per-tree test. A cached shortest-path tree
     (dist, parent) stays bit-identical on the new graph unless (a) some
     removed or weight-increased edge is one of its tree edges, or (b) some
     inserted or weight-decreased edge (x, y, w) satisfies
     dist x + w <= dist y (either orientation, finite side only). For (a):
     a removed non-tree edge never wrote a final distance — under the
     (dist, id) settling order the parent of v is the earliest-settled
     achiever of v's final distance, and an edge achieving the final value
     first IS the tree edge — so deleting it changes neither distances nor
     parents. For (b): strict inequality both ways means every path through
     the new edge is strictly longer than an existing shortest path, so no
     final value and no tie changes; the <= catches tie-induced parent
     flips conservatively.

   - [cone]: a distance bound for truncated structures. Any vertex whose
     distance from u changes must route through a delta edge, so its new
     (or old) distance from u is at least [ins_dist u] (resp.
     [del_dist u]): the multi-source distance to the delta's entry points.
     A structure of u that only depends on distances up to [bound u] is
     untouched when both exceed the bound. [del_dist] is measured in the
     old graph (increases travel old shortest paths), [ins_dist] in the
     new graph seeded at offset w from the endpoints of each inserted or
     cheapened edge (a changed path crosses the edge, paying w after
     reaching an endpoint). Both are lazy: they cost a Dijkstra each and
     only truncated consumers (vicinities) need them. *)

type t = {
  old_graph : Graph.t;
  new_graph : Graph.t;
  ops : Graph.delta_op list;
  removals : (int * int) list;
      (* removed or weight-increased edges, old endpoints *)
  inserts : (int * int * float) list;
      (* inserted or weight-decreased edges, new weight *)
  structural : bool; (* any Insert/Remove in the batch *)
  ports_shifted : bool array; (* endpoints of structural ops *)
  del_dist : float array Lazy.t; (* old-graph distance to a removal *)
  ins_dist : float array Lazy.t; (* new-graph offset distance to an insert *)
}

(* Multi-source Dijkstra with per-source offsets: dist.(v) =
   min over seeds (s, o) of o + d(s, v). *)
let offset_multi_source g seeds =
  let n = Graph.n g in
  let dist = Array.make n infinity in
  let heap = Heap.create (max n 1) in
  List.iter
    (fun (s, o) ->
      if o < dist.(s) then begin
        dist.(s) <- o;
        Heap.insert_or_decrease heap s o
      end)
    seeds;
  let scan =
    match Graph.view g with
    | Graph.Boxed (off, dst_a, wgt) ->
      fun u du ->
        for idx = off.(u) to off.(u + 1) - 1 do
          let v = dst_a.(idx) in
          let dv = du +. wgt.(idx) in
          if dv < dist.(v) then begin
            dist.(v) <- dv;
            Heap.insert_or_decrease heap v dv
          end
        done
    | Graph.Packed (off, dst_a, wgt) ->
      fun u du ->
        let base = Int32.to_int (Bigarray.Array1.get off u) in
        let stop = Int32.to_int (Bigarray.Array1.get off (u + 1)) - 1 in
        for idx = base to stop do
          let v = Int32.to_int (Bigarray.Array1.get dst_a idx) in
          let dv = du +. Graph.weight wgt idx in
          if dv < dist.(v) then begin
            dist.(v) <- dv;
            Heap.insert_or_decrease heap v dv
          end
        done
  in
  let rec loop () =
    let u = Heap.pop_min_key heap in
    if u >= 0 then begin
      scan u dist.(u);
      loop ()
    end
  in
  loop ();
  dist

let classify g ops =
  let g' = Graph.apply_delta g ops in
  let removals = ref [] and inserts = ref [] in
  let structural = ref false in
  let shifted = Array.make (max (Graph.n g) 1) false in
  List.iter
    (fun op ->
      match op with
      | Graph.Insert (u, v, w) ->
        structural := true;
        shifted.(u) <- true;
        shifted.(v) <- true;
        inserts := (u, v, w) :: !inserts
      | Graph.Remove (u, v) ->
        structural := true;
        shifted.(u) <- true;
        shifted.(v) <- true;
        removals := (u, v) :: !removals
      | Graph.Reweight (u, v, w) -> (
        match Graph.edge_weight g u v with
        | Some w0 when w > w0 -> removals := (u, v) :: !removals
        | Some w0 when w < w0 -> inserts := (u, v, w) :: !inserts
        | _ -> () (* equal weight: a no-op for every cached structure *)))
    ops;
  let removals = !removals and inserts = !inserts in
  {
    old_graph = g;
    new_graph = g';
    ops;
    removals;
    inserts;
    structural = !structural;
    ports_shifted = shifted;
    del_dist =
      lazy
        (if removals = [] then Array.make (max (Graph.n g) 1) infinity
         else
           offset_multi_source g
             (List.concat_map (fun (x, y) -> [ (x, 0.0); (y, 0.0) ]) removals));
    ins_dist =
      lazy
        (if inserts = [] then Array.make (max (Graph.n g') 1) infinity
         else
           offset_multi_source g'
             (List.concat_map (fun (x, y, w) -> [ (x, w); (y, w) ]) inserts));
  }

let old_graph d = d.old_graph
let new_graph d = d.new_graph
let ops d = d.ops
let structural d = d.structural
let ports_shifted d u = d.ports_shifted.(u)
let removals d = d.removals
let inserts d = d.inserts

let is_empty d = d.removals = [] && d.inserts = [] && not d.structural

let reaches d u ~bound =
  let del = Lazy.force d.del_dist and ins = Lazy.force d.ins_dist in
  (* Explicit finiteness guards: infinity <= infinity holds in float. *)
  (del.(u) < infinity && del.(u) <= bound)
  || (ins.(u) < infinity && ins.(u) <= bound)

let cone d ~bound =
  let n = Graph.n d.old_graph in
  Array.init n (fun u ->
      d.ports_shifted.(u) || reaches d u ~bound:(bound u))

let spt_affected d (t : Dijkstra.tree) =
  List.exists
    (fun (x, y) -> t.Dijkstra.parent.(x) = y || t.Dijkstra.parent.(y) = x)
    d.removals
  || List.exists
       (fun (x, y, w) ->
         let dx = t.Dijkstra.dist.(x) and dy = t.Dijkstra.dist.(y) in
         (dx < infinity && dx +. w <= dy) || (dy < infinity && dy +. w <= dx))
       d.inserts

(* Patch a kept tree onto the new graph: distances, parents and the settle
   order are unchanged by construction (see [spt_affected]); only the port
   labels can shift at structural endpoints. [parent_port.(v)] is a port of
   [parent.(v)] and [first_port.(v)] a port of the root, so both are
   re-derived on the new graph — the root's ports by one [port_to] per
   direct child, propagated down the (parent-before-child) settle order. *)
let patch_tree g' (t : Dijkstra.tree) =
  let n = Array.length t.Dijkstra.dist in
  let parent_port = Array.make n (-1) in
  let first_port = Array.make n (-1) in
  Array.iter
    (fun v ->
      let p = t.Dijkstra.parent.(v) in
      if p >= 0 then begin
        (match Graph.port_to g' p v with
        | Some q -> parent_port.(v) <- q
        | None -> assert false);
        first_port.(v) <-
          (if p = t.Dijkstra.source then
             match Graph.port_to g' t.Dijkstra.source v with
             | Some q -> q
             | None -> assert false
           else first_port.(p))
      end)
    t.Dijkstra.order;
  { t with Dijkstra.parent_port; first_port }

(* --- random churn ------------------------------------------------------ *)

let random ?(seed = 0) ?(size = 8) g =
  if size < 0 then invalid_arg "Delta.random: negative size";
  let n = Graph.n g in
  if n < 2 then invalid_arg "Delta.random: need at least two vertices";
  let st = Random.State.make [| seed; 0x6474; n; Graph.m g |] in
  let unit = Graph.is_unit_weighted g in
  let wmin, wmax =
    if Graph.m g = 0 then (1.0, 1.0)
    else (Graph.min_edge_weight g, Graph.max_edge_weight g)
  in
  let used = Hashtbl.create (2 * size) in
  let ops = ref [] in
  let work = ref g in
  let fresh_pair u v = not (Hashtbl.mem used (min u v, max u v)) in
  let commit op u v =
    Hashtbl.replace used (min u v, max u v) ();
    ops := op :: !ops;
    work := Graph.apply_delta !work [ op ]
  in
  let try_insert () =
    let rec go attempt =
      if attempt >= 64 then false
      else
        let u = Random.State.int st n and v = Random.State.int st n in
        if u <> v && (not (Graph.has_edge !work u v)) && fresh_pair u v then begin
          let w =
            if unit then 1.0
            else wmin +. Random.State.float st (Float.max (wmax -. wmin) wmin)
          in
          commit (Graph.Insert (u, v, w)) u v;
          true
        end
        else go (attempt + 1)
    in
    go 0
  in
  let try_remove () =
    (* Reject removals that disconnect the working graph (or split a
       component): connected inputs stay connected, so the repaired
       catalog can still be built on the result. *)
    let rec go attempt =
      if attempt >= 64 then false
      else begin
        let es = Graph.edges !work in
        let m = List.length es in
        if m = 0 then false
        else begin
          let u, v, _ = List.nth es (Random.State.int st m) in
          if fresh_pair u v then begin
            let candidate = Graph.apply_delta !work [ Graph.Remove (u, v) ] in
            let ncomp h = 1 + Array.fold_left max (-1) (Bfs.components h) in
            if ncomp candidate = ncomp !work then begin
              commit (Graph.Remove (u, v)) u v;
              true
            end
            else go (attempt + 1)
          end
          else go (attempt + 1)
        end
      end
    in
    go 0
  in
  let try_reweight () =
    let rec go attempt =
      if attempt >= 64 then false
      else begin
        let es = Graph.edges !work in
        let m = List.length es in
        if m = 0 then false
        else begin
          let u, v, w0 = List.nth es (Random.State.int st m) in
          if fresh_pair u v && Graph.has_edge g u v then begin
            let w = w0 *. (0.5 +. Random.State.float st 1.5) in
            if w > 0.0 && w <> w0 then begin
              commit (Graph.Reweight (u, v, w)) u v;
              true
            end
            else go (attempt + 1)
          end
          else go (attempt + 1)
        end
      end
    in
    go 0
  in
  for _ = 1 to size do
    let roll = Random.State.float st 1.0 in
    let ok =
      if unit then
        if roll < 0.5 then try_remove () || try_insert ()
        else try_insert () || try_remove ()
      else if roll < 0.4 then try_remove () || try_insert ()
      else if roll < 0.8 then try_insert () || try_remove ()
      else try_reweight () || try_insert ()
    in
    ignore ok
  done;
  List.rev !ops
