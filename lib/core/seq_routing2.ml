open Cr_graph
open Cr_routing
open Seq_common

type terminal =
  | At_dst            (* the last hop vertex is the destination *)
  | Relay of int      (* the last hop vertex re-injects its own sequence *)

type seq = { hops : hop array; terminal : terminal }

(* Packed sequence: one int32 Bigarray per cached entry —
   [| terminal; nhops; v0; p0; v1; p1; ... |] with terminal -1 = At_dst,
   r >= 0 = Relay r, and port -1 marking a Via hop. Encode/decode are exact
   inverses, so a decoded sequence is bit-identical to the built one. *)
type packed_seq = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

let encode_seq (sq : seq) : packed_seq =
  let nh = Array.length sq.hops in
  let a = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (2 + (2 * nh)) in
  Bigarray.Array1.set a 0
    (Int32.of_int (match sq.terminal with At_dst -> -1 | Relay r -> r));
  Bigarray.Array1.set a 1 (Int32.of_int nh);
  Array.iteri
    (fun i h ->
      let v, p = match h with Via v -> (v, -1) | Jump (v, p) -> (v, p) in
      Bigarray.Array1.set a (2 + (2 * i)) (Int32.of_int v);
      Bigarray.Array1.set a (3 + (2 * i)) (Int32.of_int p))
    sq.hops;
  a

let decode_seq (a : packed_seq) : seq =
  let geti i = Int32.to_int (Bigarray.Array1.get a i) in
  let term = geti 0 in
  let nh = geti 1 in
  {
    terminal = (if term < 0 then At_dst else Relay term);
    hops =
      Array.init nh (fun i ->
          let v = geti (2 + (2 * i)) and p = geti (3 + (2 * i)) in
          if p < 0 then Via v else Jump (v, p));
  }

(* The reference store keeps every (u, w) sequence, Theta(|U_i| |W_i|)
   pairs per part — fine up to a few thousand vertices and what the
   equivalence tests pin against. The lazy store keeps none: a sequence is
   built on first use from an early-stopped Dijkstra rooted at the
   destination and kept in a FIFO-capped packed cache. Cache state never
   changes an answer — every build is a pure function of (u, w) — so
   routing decisions are identical to the dense store's, eviction order
   and domain interleaving included.

   The lazy store is consulted from pool worker domains during
   [evaluate_batch]; a miss builds outside the cache's lock (see
   [Fifo_cache]), in a workspace borrowed from [Dijkstra.with_scratch].
   It deliberately does NOT touch the [Substrate] handle, which is
   unsynchronized by contract. *)
type lazy_store = {
  lcache : (int * int, packed_seq) Fifo_cache.t;
  ldest_group : int array;      (* w -> its part index in [dests], or -1 *)
  lpart_of : int array;
  ld_min : float;
  lmax_hops : int Atomic.t;     (* longest sequence observed so far *)
}

type store =
  | Dense of (int * int, seq) Hashtbl.t
  | Lazy of lazy_store

type t = {
  graph : Graph.t;
  eps : float;
  b : int;
  vic : Vicinity.t array;
  store : store;
  table_words : int array;
  dense_max_seq_hops : int;
  breakdown : (string * int) list;
}

type header = {
  dst : int;
  hops : hop array;
  idx : int;
  terminal : terminal;
}

let eps t = t.eps

let table_words t = t.table_words

let max_sequence_hops t =
  match t.store with
  | Dense _ -> t.dense_max_seq_hops
  | Lazy ls -> Atomic.get ls.lmax_hops

let breakdown t = t.breakdown

(* Build the Lemma 8 sequence for (u, w): the first two path edges, then
   doubling-threshold subsequences walked along the shortest-path tree of
   [w]. [relay_of x] picks a vertex of the source's part inside B(x). *)
let build_seq g vic ~b ~d_min ~relay_of ~src:u ~dst:w spt_w =
  let max_subsequences =
    let d = spt_w.Dijkstra.dist.(u) in
    8 + int_of_float (Float.max 0.0 (log (Float.max 2.0 (d /. d_min)) /. log 2.0))
  in
  let finish acc terminal = { hops = Array.of_list (List.rev acc); terminal } in
  (* One subsequence from [x] with threshold [s]; at most [2b] entries. *)
  let rec subsequence x s count acc =
    if Vicinity.mem vic.(x) w then `Done (finish (Via w :: acc) At_dst)
    else begin
      let y, z = boundary spt_w vic.(x) ~x in
      if z = w then begin
        let acc = if y = x then acc else Via y :: acc in
        `Done (finish (Jump (w, port_between g y w) :: acc) At_dst)
      end
      else begin
        let dxz = spt_w.Dijkstra.dist.(x) -. spt_w.Dijkstra.dist.(z) in
        if dxz < s then begin
          match relay_of x with
          | None -> invalid_arg "Seq_routing2: a vicinity misses the source part"
          | Some r ->
            if r = w then `Done (finish (Via r :: acc) At_dst)
            else `Done (finish (Via r :: acc) (Relay r))
        end
        else begin
          let acc = if y = x then acc else Via y :: acc in
          let acc = Jump (z, port_between g y z) :: acc in
          let count = count + 2 in
          if count >= 2 * b then `More (z, acc)
          else subsequence z s count acc
        end
      end
    end
  in
  let rec subsequences x k acc =
    if k > max_subsequences then
      invalid_arg "Seq_routing2: runaway subsequence construction";
    let s = float_of_int (1 lsl k) /. float_of_int b *. d_min in
    match subsequence x s 0 acc with
    | `Done sq -> sq
    | `More (x', acc') -> subsequences x' (k + 1) acc'
  in
  (* The first two vertices of the shortest path from u to w. *)
  let u1 = spt_w.Dijkstra.parent.(u) in
  let acc = [ Jump (u1, port_between g u u1) ] in
  if u1 = w then finish acc At_dst
  else begin
    let u2 = spt_w.Dijkstra.parent.(u1) in
    let acc = Jump (u2, port_between g u1 u2) :: acc in
    if u2 = w then finish acc At_dst else subsequences u2 1 acc
  end

(* How many packed sequences the lazy cache retains before FIFO eviction.
   Contents never affect answers, only rebuild wall-clock. *)
let lazy_cache_cap = 8192

let preprocess ?substrate ?(eps = 0.5) ?(mode = `Dense) g ~vicinities ~parts
    ~part_of ~dests =
  if eps <= 0.0 then invalid_arg "Seq_routing2.preprocess: eps must be positive";
  if not (Bfs.is_connected g) then
    invalid_arg "Seq_routing2.preprocess: graph must be connected";
  let sub = Substrate.for_graph substrate g in
  if Array.length parts <> Array.length dests then
    invalid_arg "Seq_routing2.preprocess: |parts| <> |dests|";
  let n = Graph.n g in
  let b = 1 + max 1 (int_of_float (ceil (2.0 /. eps))) in
  let vic = vicinities in
  let d_min = Graph.min_edge_weight g in
  let table_words = Array.make n 0 in
  let vic_total = ref 0 in
  for u = 0 to n - 1 do
    vic_total := !vic_total + vicinity_words vic.(u);
    table_words.(u) <- vicinity_words vic.(u)
  done;
  match mode with
  | `Dense ->
    let seqs = Hashtbl.create (4 * n) in
    Array.iteri
      (fun j part ->
        let relay_of x =
          Vicinity.nearest_of vic.(x) (fun v -> part_of.(v) = j)
        in
        Array.iter
          (fun w ->
            let spt_w = Substrate.spt sub w in
            Array.iter
              (fun u ->
                if u <> w then
                  Hashtbl.replace seqs (u, w)
                    (build_seq g vic ~b ~d_min ~relay_of ~src:u ~dst:w spt_w))
              part)
          dests.(j))
      parts;
    let seq_total = ref 0 in
    let max_seq_hops = ref 0 in
    Hashtbl.iter
      (fun (u, _) (sq : seq) ->
        max_seq_hops := max !max_seq_hops (Array.length sq.hops);
        let w = 2 + seq_words sq.hops in
        seq_total := !seq_total + w;
        table_words.(u) <- table_words.(u) + w)
      seqs;
    {
      graph = g;
      eps;
      b;
      vic;
      store = Dense seqs;
      table_words;
      dense_max_seq_hops = !max_seq_hops;
      breakdown = [ ("vicinities", !vic_total); ("sequences", !seq_total) ];
    }
  | `Lazy ->
    let dest_group = Array.make n (-1) in
    Array.iteri
      (fun j ws -> Array.iter (fun w -> dest_group.(w) <- j) ws)
      dests;
    {
      graph = g;
      eps;
      b;
      vic;
      store =
        Lazy
          {
            lcache = Fifo_cache.create lazy_cache_cap;
            ldest_group = dest_group;
            lpart_of = part_of;
            ld_min = d_min;
            lmax_hops = Atomic.make 0;
          };
      table_words;
      dense_max_seq_hops = 0;
      breakdown = [ ("vicinities", !vic_total); ("sequences", 0) ];
    }

let fetch_seq t ~src:u ~dst:w =
  match t.store with
  | Dense seqs -> (
    match Hashtbl.find_opt seqs (u, w) with
    | Some sq -> sq
    | None -> raise Not_found)
  | Lazy ls ->
    if u = w then raise Not_found;
    let j = ls.ldest_group.(w) in
    if j < 0 || ls.lpart_of.(u) <> j then raise Not_found;
    match Fifo_cache.find ls.lcache (u, w) with
    | Some packed -> decode_seq packed
    | None ->
      let relay_of x =
        Vicinity.nearest_of t.vic.(x) (fun v -> ls.lpart_of.(v) = j)
      in
      (* The build reads the destination tree only at vertices strictly
         closer to [w] than [u] (plus [u] itself): the initial
         [parent.(u)]/[parent.(u1)] edges and boundary walks that always
         move rootward. Stopping the search right after [u] settles
         therefore yields bit-identical sequences to the full SPT the
         dense store uses, at the cost of the ball around [w] of radius
         d(u, w) instead of the whole graph. *)
      let sq =
        Dijkstra.with_scratch (Graph.n t.graph) (fun ws ->
            Dijkstra.with_spt_until ws t.graph w ~until:u (fun spt_w ->
                build_seq t.graph t.vic ~b:t.b ~d_min:ls.ld_min ~relay_of
                  ~src:u ~dst:w spt_w))
      in
      Fifo_cache.add ls.lcache (u, w) (encode_seq sq);
      let rec raise_max () =
        let cur = Atomic.get ls.lmax_hops in
        if Array.length sq.hops > cur
           && not (Atomic.compare_and_set ls.lmax_hops cur (Array.length sq.hops))
        then raise_max ()
      in
      raise_max ();
      sq

let initial_header t ~src ~dst =
  let sq = fetch_seq t ~src ~dst in
  { dst; hops = sq.hops; idx = 0; terminal = sq.terminal }

let header_words h =
  let remaining = ref 2 in
  for i = h.idx to Array.length h.hops - 1 do
    remaining := !remaining + hop_words h.hops.(i)
  done;
  !remaining

let header_bits t h =
  let id_bits = graph_id_bits t.graph in
  let port_bits = graph_port_bits t.graph in
  let acc = ref (id_bits + 1) in
  for i = h.idx to Array.length h.hops - 1 do
    acc := !acc + hop_bits ~id_bits ~port_bits h.hops.(i)
  done;
  !acc

(* --- routing tables ------------------------------------------------------- *)

type compiled = { base : t; vic_c : Vicinity.compiled array }

let compile t = { base = t; vic_c = Array.map Vicinity.compile t.vic }

let compiled_vicinities c = c.vic_c

let rec step c ~at h =
  if h.idx >= Array.length h.hops then begin
    match h.terminal with
    | At_dst ->
      if at = h.dst then Port_model.Deliver
      else invalid_arg "Seq_routing2.step: sequence exhausted off target"
    | Relay r ->
      if at <> r then invalid_arg "Seq_routing2.step: relay mismatch"
        (* The relay's own sequence is fetched once per relay point from
           the build-time store; only per-hop work reads compiled tables. *)
      else step c ~at (initial_header c.base ~src:r ~dst:h.dst)
  end
  else begin
    let hop = h.hops.(h.idx) in
    let target = hop_vertex hop in
    if at = target then step c ~at { h with idx = h.idx + 1 }
    else
      match hop with
      | Via x -> Port_model.Forward (Vicinity.step c.vic_c ~at ~dst:x, h)
      | Jump (_, port) -> Port_model.Forward (port, h)
  end

let route ?faults c ~src ~dst =
  let t = c.base in
  let header = initial_header t ~src ~dst in
  Port_model.run t.graph ~src ~header ?faults
    ~step:(fun ~at h -> step c ~at h)
    ~header_words
    ~max_hops:((64 * Graph.n t.graph) + 256)
    ()

(* --- snapshot form ------------------------------------------------------ *)

(* Frozen mirror minus graph, vicinities (frozen by the enclosing scheme)
   and the lazy store's runtime plumbing. The lazy store's decision inputs
   — destination grouping, part map, minimum edge weight — are plain data
   and must survive the round trip; the cache and [lmax_hops] observation
   start empty, which never changes an answer. *)
type flazy = {
  z_dest_group : int array;
  z_lpart_of : int array;
  z_d_min : float;
}

type fstore =
  | FDense of (int * int, seq) Hashtbl.t
  | FLazy of flazy

type frozen = {
  z_eps : float;
  z_b : int;
  z_store : fstore;
  z_table_words : int array;
  z_dense_max_seq_hops : int;
  z_breakdown : (string * int) list;
}

let freeze t =
  {
    z_eps = t.eps;
    z_b = t.b;
    z_store =
      (match t.store with
      | Dense s -> FDense s
      | Lazy ls ->
        FLazy
          {
            z_dest_group = ls.ldest_group;
            z_lpart_of = ls.lpart_of;
            z_d_min = ls.ld_min;
          });
    z_table_words = t.table_words;
    z_dense_max_seq_hops = t.dense_max_seq_hops;
    z_breakdown = t.breakdown;
  }

let thaw ~graph ~vicinities z =
  let store =
    match z.z_store with
    | FDense s -> Dense s
    | FLazy f ->
      Lazy
        {
          lcache = Fifo_cache.create lazy_cache_cap;
          ldest_group = f.z_dest_group;
          lpart_of = f.z_lpart_of;
          ld_min = f.z_d_min;
          lmax_hops = Atomic.make 0;
        }
  in
  {
    graph;
    eps = z.z_eps;
    b = z.z_b;
    vic = vicinities;
    store;
    table_words = z.z_table_words;
    dense_max_seq_hops = z.z_dense_max_seq_hops;
    breakdown = z.z_breakdown;
  }
