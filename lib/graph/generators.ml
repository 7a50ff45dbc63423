let path n =
  Graph.of_unweighted_edges ~n (List.init (max (n - 1) 0) (fun i -> (i, i + 1)))

let cycle n =
  if n < 3 then invalid_arg "Generators.cycle: need n >= 3";
  Graph.of_unweighted_edges ~n ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1)))

let star n =
  Graph.of_unweighted_edges ~n (List.init (max (n - 1) 0) (fun i -> (0, i + 1)))

let complete n =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  Graph.of_unweighted_edges ~n !edges

let grid rows cols =
  if rows < 1 || cols < 1 then invalid_arg "Generators.grid";
  let id r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (id r c, id r (c + 1)) :: !edges;
      if r + 1 < rows then edges := (id r c, id (r + 1) c) :: !edges
    done
  done;
  Graph.of_unweighted_edges ~n:(rows * cols) !edges

let torus rows cols =
  if rows < 3 || cols < 3 then invalid_arg "Generators.torus: need dims >= 3";
  let id r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      edges := (id r c, id r ((c + 1) mod cols)) :: !edges;
      edges := (id r c, id ((r + 1) mod rows) c) :: !edges
    done
  done;
  Graph.of_unweighted_edges ~n:(rows * cols) !edges

let hypercube d =
  if d < 0 || d > 20 then invalid_arg "Generators.hypercube";
  let n = 1 lsl d in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for b = 0 to d - 1 do
      let v = u lxor (1 lsl b) in
      if u < v then edges := (u, v) :: !edges
    done
  done;
  Graph.of_unweighted_edges ~n !edges

let balanced_tree ~branching ~depth =
  if branching < 1 || depth < 0 then invalid_arg "Generators.balanced_tree";
  let edges = ref [] in
  let next = ref 1 in
  (* Queue of (vertex, remaining depth). *)
  let q = Queue.create () in
  Queue.add (0, depth) q;
  while not (Queue.is_empty q) do
    let u, d = Queue.pop q in
    if d > 0 then
      for _ = 1 to branching do
        let v = !next in
        incr next;
        edges := (u, v) :: !edges;
        Queue.add (v, d - 1) q
      done
  done;
  Graph.of_unweighted_edges ~n:!next !edges

let gnp ~seed n p =
  if p < 0.0 || p > 1.0 then invalid_arg "Generators.gnp: bad probability";
  let st = Random.State.make [| seed; 0x6e70 |] in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float st 1.0 < p then edges := (u, v) :: !edges
    done
  done;
  Graph.of_unweighted_edges ~n !edges

let gnm ~seed n m =
  let max_m = n * (n - 1) / 2 in
  if m < 0 || m > max_m then invalid_arg "Generators.gnm: bad edge count";
  let st = Random.State.make [| seed; 0x6e6d |] in
  let chosen = Hashtbl.create (2 * m) in
  while Hashtbl.length chosen < m do
    let u = Random.State.int st n and v = Random.State.int st n in
    if u <> v then Hashtbl.replace chosen (min u v, max u v) ()
  done;
  Graph.of_unweighted_edges ~n (Hashtbl.fold (fun e () acc -> e :: acc) chosen [])

let random_tree ~seed n =
  if n <= 0 then invalid_arg "Generators.random_tree";
  if n = 1 then Graph.of_unweighted_edges ~n []
  else if n = 2 then Graph.of_unweighted_edges ~n [ (0, 1) ]
  else begin
    let st = Random.State.make [| seed; 0x7472 |] in
    let prufer = Array.init (n - 2) (fun _ -> Random.State.int st n) in
    let deg = Array.make n 1 in
    Array.iter (fun v -> deg.(v) <- deg.(v) + 1) prufer;
    let heap = Heap.create n in
    for v = 0 to n - 1 do
      if deg.(v) = 1 then Heap.insert heap v (float_of_int v)
    done;
    let edges = ref [] in
    Array.iter
      (fun v ->
        let leaf = Heap.pop_min_key heap in
        assert (leaf >= 0);
        edges := (leaf, v) :: !edges;
        deg.(v) <- deg.(v) - 1;
        if deg.(v) = 1 then Heap.insert heap v (float_of_int v))
      prufer;
    let a = Heap.pop_min_key heap in
    let b = Heap.pop_min_key heap in
    assert (a >= 0 && b >= 0);
    edges := (a, b) :: !edges;
    Graph.of_unweighted_edges ~n !edges
  end

let barabasi_albert ~seed n k =
  if k < 1 || n <= k then invalid_arg "Generators.barabasi_albert: need n > k >= 1";
  let st = Random.State.make [| seed; 0x6261 |] in
  (* Edges stream straight into the CSR builder — no edge list. The RNG
     draw sequence is unchanged from the historical list-based version, so
     seeds produce the same graphs. *)
  let b = Graph.Builder.create ~n ~hint:(((k + 1) * k / 2) + (k * (n - k))) () in
  (* [targets] holds one entry per edge endpoint: sampling uniformly from it
     is degree-proportional sampling. Seed with a (k+1)-clique. *)
  let targets = ref [] in
  for u = 0 to k do
    for v = u + 1 to k do
      Graph.Builder.add_edge b u v 1.0;
      targets := u :: v :: !targets
    done
  done;
  let targets = ref (Array.of_list !targets) in
  let tlen = ref (Array.length !targets) in
  let push x =
    if !tlen >= Array.length !targets then begin
      let bigger = Array.make (max 16 (2 * Array.length !targets)) 0 in
      Array.blit !targets 0 bigger 0 !tlen;
      targets := bigger
    end;
    !targets.(!tlen) <- x;
    incr tlen
  in
  for u = k + 1 to n - 1 do
    let chosen = Hashtbl.create k in
    while Hashtbl.length chosen < k do
      let v = !targets.(Random.State.int st !tlen) in
      if v <> u then Hashtbl.replace chosen v ()
    done;
    Hashtbl.iter
      (fun v () ->
        Graph.Builder.add_edge b u v 1.0;
        push u;
        push v)
      chosen
  done;
  Graph.Builder.finish b

let random_geometric ~seed n ~radius =
  if radius <= 0.0 then invalid_arg "Generators.random_geometric: bad radius";
  let st = Random.State.make [| seed; 0x7267 |] in
  let xs = Array.init n (fun _ -> Random.State.float st 1.0) in
  let ys = Array.init n (fun _ -> Random.State.float st 1.0) in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let dx = xs.(u) -. xs.(v) and dy = ys.(u) -. ys.(v) in
      let d = sqrt ((dx *. dx) +. (dy *. dy)) in
      if d <= radius && d > 0.0 then edges := (u, v, d) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let watts_strogatz ~seed n ~k ~beta =
  if k < 1 || n <= 2 * k then invalid_arg "Generators.watts_strogatz: need n > 2k";
  if beta < 0.0 || beta > 1.0 then invalid_arg "Generators.watts_strogatz: bad beta";
  let st = Random.State.make [| seed; 0x7773 |] in
  let edges = Hashtbl.create (2 * n * k) in
  let add u v = if u <> v then Hashtbl.replace edges (min u v, max u v) () in
  for u = 0 to n - 1 do
    for j = 1 to k do
      let v = (u + j) mod n in
      if Random.State.float st 1.0 < beta then begin
        (* Rewire the far endpoint to a uniform non-neighbor. *)
        let rec pick tries =
          let w = Random.State.int st n in
          if tries > 32 || (w <> u && not (Hashtbl.mem edges (min u w, max u w)))
          then w
          else pick (tries + 1)
        in
        let w = pick 0 in
        if w <> u then add u w else add u v
      end
      else add u v
    done
  done;
  Graph.of_unweighted_edges ~n (Hashtbl.fold (fun e () acc -> e :: acc) edges [])

let caveman ~seed ~cliques ~size ~rewire =
  if cliques < 1 || size < 2 then invalid_arg "Generators.caveman";
  if rewire < 0.0 || rewire > 1.0 then invalid_arg "Generators.caveman: bad rewire";
  let st = Random.State.make [| seed; 0x6376 |] in
  let n = cliques * size in
  let edges = Hashtbl.create (cliques * size * size) in
  let add u v = if u <> v then Hashtbl.replace edges (min u v, max u v) () in
  for c = 0 to cliques - 1 do
    let base = c * size in
    for i = 0 to size - 1 do
      for j = i + 1 to size - 1 do
        if Random.State.float st 1.0 < rewire then
          add (base + i) (Random.State.int st n)
        else add (base + i) (base + j)
      done
    done;
    (* Ring of cliques: last member links to the next clique's first. *)
    if cliques > 1 then
      add (base + size - 1) (((c + 1) mod cliques) * size)
  done;
  Graph.of_unweighted_edges ~n (Hashtbl.fold (fun e () acc -> e :: acc) edges [])

let connect ~seed g =
  let comp = Bfs.components g in
  let k = 1 + Array.fold_left max (-1) comp in
  if k <= 1 then g
  else begin
    let st = Random.State.make [| seed; 0x636e |] in
    let members = Array.make k [] in
    Array.iteri (fun v c -> members.(c) <- v :: members.(c)) comp;
    let pick c =
      let l = members.(c) in
      List.nth l (Random.State.int st (List.length l))
    in
    (* Components are disjoint, so the k-1 bridge pairs are distinct and
       absent: a single delta batch links them without ever materializing
       the existing edge list. *)
    let extra =
      List.init (k - 1) (fun c -> Graph.Insert (pick c, pick (c + 1), 1.0))
    in
    Graph.apply_delta g extra
  end

(* Chung–Lu expected-degree power law, sampled with the Miller–Hagberg
   skip algorithm (O(n + m) instead of O(n^2)): vertex i gets target
   weight w_i ∝ (i+1)^(-1/(exponent-1)), scaled so the expected average
   degree matches, and each pair (u, v) is an edge independently with
   probability min(1, w_u w_v / S). Because the weights are non-increasing
   in the vertex id, the inner loop over v can jump geometrically between
   successes at the current probability bound and correct by rejection —
   the standard efficient Chung–Lu sampler. *)
let power_law ~seed ?(exponent = 2.1) ?(avg_degree = 8.0) ?(connected = true) n =
  if n < 1 then invalid_arg "Generators.power_law: need n >= 1";
  if exponent <= 2.0 then invalid_arg "Generators.power_law: need exponent > 2";
  if avg_degree <= 0.0 then
    invalid_arg "Generators.power_law: need avg_degree > 0";
  let st = Random.State.make [| seed; 0x706c |] in
  let alpha = 1.0 /. (exponent -. 1.0) in
  let w = Array.init n (fun i -> float_of_int (i + 1) ** -.alpha) in
  let sum = Array.fold_left ( +. ) 0.0 w in
  let scale = avg_degree *. float_of_int n /. sum in
  for i = 0 to n - 1 do
    w.(i) <- w.(i) *. scale
  done;
  let s = Array.fold_left ( +. ) 0.0 w in
  (* Cap at sqrt(S) so every pairwise probability is at most 1 and the
     weights stay non-increasing. *)
  let cap = sqrt s in
  for i = 0 to n - 1 do
    if w.(i) > cap then w.(i) <- cap
  done;
  let b =
    Graph.Builder.create ~n
      ~hint:(max 16 (int_of_float (avg_degree *. float_of_int n /. 2.0)))
      ()
  in
  for u = 0 to n - 2 do
    let v = ref (u + 1) in
    let p = ref (Float.min 1.0 (w.(u) *. w.(!v) /. s)) in
    while !v < n && !p > 0.0 do
      if !p < 1.0 then begin
        (* Geometric skip over the failures; 1 - U is in (0, 1], so the
           log never hits -inf. *)
        let r = 1.0 -. Random.State.float st 1.0 in
        v := !v + int_of_float (log r /. log (1.0 -. !p))
      end;
      if !v < n then begin
        let q = Float.min 1.0 (w.(u) *. w.(!v) /. s) in
        if Random.State.float st 1.0 *. !p < q then
          Graph.Builder.add_edge b u !v 1.0;
        p := q;
        incr v
      end
    done
  done;
  let g = Graph.Builder.finish b in
  if connected then connect ~seed g else g

(* GLP (Generalized Linear Preference, Bu–Towsley 2002): preferential
   attachment with probability proportional to (degree - beta), mixing
   new-vertex steps with edge-densification steps between existing
   vertices. The default parameters are the paper's fit to the Internet
   AS topology. Sampling from (d - beta) rides a degree-proportional
   endpoint array with rejection, so each draw is O(1) expected. *)
let glp ~seed ?(m = 2) ?(p = 0.4695) ?(beta = 0.6469) n =
  if m < 1 || n <= m + 1 then invalid_arg "Generators.glp: need n > m + 1";
  if p < 0.0 || p >= 1.0 then invalid_arg "Generators.glp: need 0 <= p < 1";
  if beta >= 1.0 then invalid_arg "Generators.glp: need beta < 1";
  let st = Random.State.make [| seed; 0x676c |] in
  let b = Graph.Builder.create ~n ~hint:(max 16 (2 * m * n)) () in
  let deg = Array.make n 0 in
  let targets = ref (Array.make 16 0) in
  let tlen = ref 0 in
  let push x =
    if !tlen >= Array.length !targets then begin
      let bigger = Array.make (2 * Array.length !targets) 0 in
      Array.blit !targets 0 bigger 0 !tlen;
      targets := bigger
    end;
    !targets.(!tlen) <- x;
    incr tlen
  in
  (* Unordered pairs already present, keyed as a single immediate int. *)
  let seen = Hashtbl.create (4 * m * n) in
  let add_edge u v =
    let key = (min u v * n) + max u v in
    if u <> v && not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      Graph.Builder.add_edge b u v 1.0;
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1;
      push u;
      push v;
      true
    end
    else false
  in
  (* Seed: a path on m + 1 vertices. *)
  let m0 = m + 1 in
  for i = 0 to m0 - 2 do
    ignore (add_edge i (i + 1))
  done;
  (* Acceptance bound: (d - beta) / (d * c) <= 1 for all d >= 1. *)
  let c = Float.max 1.0 (1.0 -. beta) in
  let pick_pref () =
    let rec go tries =
      let cand = !targets.(Random.State.int st !tlen) in
      let d = float_of_int deg.(cand) in
      if tries > 10_000 || Random.State.float st 1.0 *. c *. d < d -. beta
      then cand
      else go (tries + 1)
    in
    go 0
  in
  let live = ref m0 in
  while !live < n do
    if Random.State.float st 1.0 < p then
      (* Densification: m new edges between existing vertices. *)
      for _ = 1 to m do
        let rec attempt tries =
          if tries < 32 then
            if not (add_edge (pick_pref ()) (pick_pref ())) then
              attempt (tries + 1)
        in
        attempt 0
      done
    else begin
      (* Growth: a new vertex attaches to m distinct existing vertices.
         The first attachment always succeeds, so the graph stays
         connected. *)
      let u = !live in
      incr live;
      let got = ref 0 and tries = ref 0 in
      while !got < m && !tries < 64 * m do
        incr tries;
        if add_edge u (pick_pref ()) then incr got
      done
    end
  done;
  Graph.Builder.finish b

let with_random_weights ~seed ~lo ~hi g =
  if not (0.0 < lo && lo <= hi) then invalid_arg "Generators.with_random_weights";
  let st = Random.State.make [| seed; 0x7767 |] in
  Graph.reweight g (fun _ _ _ -> lo +. Random.State.float st (hi -. lo))
