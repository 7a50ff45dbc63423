type tree = {
  source : int;
  dist : float array;
  parent : int array;
  parent_port : int array;
  first_port : int array;
  order : int array;
}

(* ------------------------------------------------------------------ *)
(* Reusable workspace                                                  *)
(* ------------------------------------------------------------------ *)

(* All per-search scratch state, allocated once and reused across calls.
   [stamp]/[gen] track which vertices the current search has written, so a
   reset costs O(touched), not O(n): a workspace running n truncated
   searches of size l does O(n l) reset work instead of O(n^2). *)
type workspace = {
  ws_dist : float array;
  ws_parent : int array;
  ws_parent_port : int array;
  ws_first_port : int array;
  ws_order : int array;
  ws_heap : Heap.t;
  ws_stamp : int array;      (* stamp.(v) = gen iff v touched this search *)
  ws_touched : int array;
  mutable ws_ntouched : int;
  mutable ws_gen : int;
}

let workspace n =
  if n < 0 then invalid_arg "Dijkstra.workspace";
  {
    ws_dist = Array.make n infinity;
    ws_parent = Array.make n (-1);
    ws_parent_port = Array.make n (-1);
    ws_first_port = Array.make n (-1);
    ws_order = Array.make n (-1);
    ws_heap = Heap.create n;
    ws_stamp = Array.make n 0;
    ws_touched = Array.make n (-1);
    ws_ntouched = 0;
    ws_gen = 0;
  }

let workspace_capacity ws = Array.length ws.ws_dist

let[@inline] touch ws v =
  if ws.ws_stamp.(v) <> ws.ws_gen then begin
    ws.ws_stamp.(v) <- ws.ws_gen;
    ws.ws_touched.(ws.ws_ntouched) <- v;
    ws.ws_ntouched <- ws.ws_ntouched + 1
  end

let reset ws =
  for i = 0 to ws.ws_ntouched - 1 do
    let v = ws.ws_touched.(i) in
    ws.ws_dist.(v) <- infinity;
    ws.ws_parent.(v) <- -1;
    ws.ws_parent_port.(v) <- -1;
    ws.ws_first_port.(v) <- -1
  done;
  ws.ws_ntouched <- 0;
  Heap.clear ws.ws_heap

(* Relaxes arc [u -> v] (port [port] of [u]) to tentative distance [d'].
   Loop-free and closed so the scan loops inline it: [d'] stays unboxed
   from the weight read through the heap update. No settled flag is
   needed: weights are positive, so [d'] exceeds the distance of [u] and
   hence of every vertex settled before it. *)
let[@inline] relax ws s u v port d' =
  let dist = ws.ws_dist in
  if d' < dist.(v) then begin
    touch ws v;
    dist.(v) <- d';
    ws.ws_parent.(v) <- u;
    ws.ws_parent_port.(v) <- port;
    ws.ws_first_port.(v) <- (if u = s then port else ws.ws_first_port.(u));
    Heap.insert_or_decrease ws.ws_heap v d'
  end

(* Core loop shared by all single-source variants; returns the number of
   settled vertices (a prefix of [ws_order]). The caller must [reset] the
   workspace when done with the scratch arrays.

   [limit] (restricted search) settles a popped vertex [v] only when its
   final distance is below [limit v]. [count] (truncated search) stops
   after that many settles. [stop_at] (default [-1], i.e. never) halts the
   search right after that vertex is settled and scanned. The settled
   prefix is exactly the set of vertices closer than [stop_at] under
   [(dist, id)] order, each with its final distance and parent — the
   standard Dijkstra invariant — so a caller that only reads vertices it
   knows settle before [stop_at] sees data identical to a full run.

   The edge scan dispatches on the storage representation, float32 and
   float64 weights included, once per call: [scan] is a closure bound to
   the concrete arrays, so the per-arc work has no representation tests
   and allocates nothing. A popped key's priority is [dist.(u)]. *)
let run_core ?(stop_at = -1) ?(count = max_int) ?limit ws g s =
  ws.ws_gen <- ws.ws_gen + 1;
  let dist = ws.ws_dist and order = ws.ws_order and heap = ws.ws_heap in
  let scan =
    match Graph.view g with
    | Graph.Boxed (off, dst, wgt) ->
      fun u ->
        let d = dist.(u) and base = off.(u) in
        for idx = base to off.(u + 1) - 1 do
          relax ws s u dst.(idx) (idx - base) (d +. wgt.(idx))
        done
    | Graph.Packed (off, dst, Graph.W64 wgt) ->
      fun u ->
        let d = dist.(u) in
        let base = Int32.to_int (Bigarray.Array1.get off u) in
        for idx = base to Int32.to_int (Bigarray.Array1.get off (u + 1)) - 1 do
          relax ws s u (Int32.to_int (Bigarray.Array1.get dst idx)) (idx - base) (d +. wgt.(idx))
        done
    | Graph.Packed (off, dst, Graph.W32 wgt) ->
      fun u ->
        let d = dist.(u) in
        let base = Int32.to_int (Bigarray.Array1.get off u) in
        for idx = base to Int32.to_int (Bigarray.Array1.get off (u + 1)) - 1 do
          relax ws s u
            (Int32.to_int (Bigarray.Array1.get dst idx))
            (idx - base)
            (d +. Bigarray.Array1.get wgt idx)
        done
  in
  let admit =
    match limit with None -> fun _ -> true | Some f -> fun v -> dist.(v) < f v
  in
  touch ws s;
  dist.(s) <- 0.0;
  Heap.insert heap s 0.0;
  let settled = ref 0 and running = ref true in
  while !running && !settled < count do
    let u = Heap.pop_min_key heap in
    if u < 0 then running := false
    else if admit u then begin
      order.(!settled) <- u;
      incr settled;
      scan u;
      if u = stop_at then running := false
    end
    else dist.(u) <- infinity
    (* A rejected vertex keeps [infinity] so callers can treat it as
       outside the tree; it may be re-relaxed only through other rejected
       vertices, which [limit] will reject again. *)
  done;
  !settled

(* A borrowed view over the workspace arrays; only [order] is fresh. *)
let borrowed_tree ws s count =
  {
    source = s;
    dist = ws.ws_dist;
    parent = ws.ws_parent;
    parent_port = ws.ws_parent_port;
    first_port = ws.ws_first_port;
    order = Array.sub ws.ws_order 0 count;
  }

let with_run ws s count f =
  Fun.protect ~finally:(fun () -> reset ws) (fun () -> f (borrowed_tree ws s count))

let with_spt ws g s f = with_run ws s (run_core ws g s) f

let with_spt_until ws g s ~until f = with_run ws s (run_core ~stop_at:until ws g s) f

let with_restricted ws g w ~limit f = with_run ws w (run_core ~limit ws g w) f

(* The allocating entry points run in a throwaway workspace and hand its
   arrays to the caller directly — same cost profile as before workspaces
   existed, and the returned tree owns its arrays. *)
let spt g s =
  let ws = workspace (Graph.n g) in
  borrowed_tree ws s (run_core ws g s)

let restricted g w ~limit =
  let ws = workspace (Graph.n g) in
  borrowed_tree ws w (run_core ~limit ws g w)

(* ------------------------------------------------------------------ *)
(* Process-wide scratch                                                *)
(* ------------------------------------------------------------------ *)

(* Free workspaces shared by every caller in the process. A borrow takes
   any workspace large enough; when none fits it allocates a fresh one and
   drops one too-small workspace, if any, so the list never holds more
   workspaces than the peak number of concurrent borrowers. Only the list
   operations run under the lock; searches run outside it. *)
let scratch_lock = Mutex.create ()

let scratch_free : workspace list ref = ref []

let borrow n =
  let fit =
    Mutex.protect scratch_lock (fun () ->
        match List.partition (fun ws -> workspace_capacity ws >= n) !scratch_free with
        | ws :: fits, small ->
          scratch_free := fits @ small;
          Some ws
        | [], _ :: small ->
          scratch_free := small;
          None
        | [], [] -> None)
  in
  match fit with Some ws -> ws | None -> workspace n

let with_scratch n f =
  if n < 0 then invalid_arg "Dijkstra.with_scratch";
  let ws = borrow n in
  Fun.protect
    ~finally:(fun () ->
      (* a search that raised before its own reset leaves marks behind *)
      reset ws;
      Mutex.protect scratch_lock (fun () -> scratch_free := ws :: !scratch_free))
    (fun () -> f ws)

let path_to t v =
  if t.dist.(v) = infinity then invalid_arg "Dijkstra.path_to: unreachable";
  let rec up v acc = if v = t.source then v :: acc else up t.parent.(v) (v :: acc) in
  up v []

let path_from t x = List.rev (path_to t x)

(* ------------------------------------------------------------------ *)
(* Truncated search                                                    *)
(* ------------------------------------------------------------------ *)

type truncated = {
  src : int;
  vertices : int array;
  dists : float array;
  parents : int array;
  first_ports : int array;
  next_dist : float option;
}

let truncated_ws ws g s l =
  let k = run_core ~count:(max l 1) ws g s in
  (* The nearest vertex of the component left out of B(s, l), if any: a
     non-destructive peek — the heap min's tentative distance is final by
     the usual Dijkstra invariant. [None] iff every vertex reachable from
     [s] was settled (the component has at most [l] vertices), which is
     distinct from "the heap happened to empty": the heap can only be empty
     here when the frontier is exhausted. *)
  let next_dist =
    match Heap.peek_min ws.ws_heap with Some (_, d) -> Some d | None -> None
  in
  let vertices = Array.sub ws.ws_order 0 k in
  let dists = Array.map (fun v -> ws.ws_dist.(v)) vertices in
  let parents = Array.map (fun v -> ws.ws_parent.(v)) vertices in
  let first_ports = Array.map (fun v -> ws.ws_first_port.(v)) vertices in
  reset ws;
  { src = s; vertices; dists; parents; first_ports; next_dist }

let truncated g s l = truncated_ws (workspace (Graph.n g)) g s l

(* ------------------------------------------------------------------ *)
(* Multi-source                                                        *)
(* ------------------------------------------------------------------ *)

type multi = {
  dist_to_set : float array;
  nearest : int array;
  mparent : int array;
}

(* Relaxes [u -> v] to [d'], preferring the smaller nearest center on equal
   distance. Loop-free and closed for the same reason as [relax]. *)
let[@inline] relax_nearest dist nearest mparent settled heap u v d' =
  if not settled.(v) then
    if d' < dist.(v) || (d' = dist.(v) && nearest.(u) < nearest.(v)) then begin
      dist.(v) <- d';
      nearest.(v) <- nearest.(u);
      mparent.(v) <- u;
      Heap.insert_or_decrease heap v d'
    end

let multi_source g centers =
  let n = Graph.n g in
  let dist = Array.make n infinity in
  let nearest = Array.make n (-1) in
  let mparent = Array.make n (-1) in
  let settled = Array.make n false in
  let heap = Heap.create n in
  let scan =
    match Graph.view g with
    | Graph.Boxed (off, dst, wgt) ->
      fun u ->
        let d = dist.(u) in
        for idx = off.(u) to off.(u + 1) - 1 do
          relax_nearest dist nearest mparent settled heap u dst.(idx) (d +. wgt.(idx))
        done
    | Graph.Packed (off, dst, Graph.W64 wgt) ->
      fun u ->
        let d = dist.(u) in
        for idx = Int32.to_int (Bigarray.Array1.get off u)
            to Int32.to_int (Bigarray.Array1.get off (u + 1)) - 1 do
          relax_nearest dist nearest mparent settled heap u
            (Int32.to_int (Bigarray.Array1.get dst idx))
            (d +. wgt.(idx))
        done
    | Graph.Packed (off, dst, Graph.W32 wgt) ->
      fun u ->
        let d = dist.(u) in
        for idx = Int32.to_int (Bigarray.Array1.get off u)
            to Int32.to_int (Bigarray.Array1.get off (u + 1)) - 1 do
          relax_nearest dist nearest mparent settled heap u
            (Int32.to_int (Bigarray.Array1.get dst idx))
            (d +. Bigarray.Array1.get wgt idx)
        done
  in
  (* Initialize centers in increasing id order so ties prefer smaller ids. *)
  let centers = List.sort_uniq Int.compare centers in
  List.iter
    (fun a ->
      dist.(a) <- 0.0;
      nearest.(a) <- a;
      if not (Heap.mem heap a) then Heap.insert heap a 0.0)
    centers;
  let u = ref (Heap.pop_min_key heap) in
  while !u >= 0 do
    settled.(!u) <- true;
    scan !u;
    u := Heap.pop_min_key heap
  done;
  { dist_to_set = dist; nearest; mparent }
