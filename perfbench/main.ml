(* The repository benchmark: three workloads over the public API, each in
   its own process.

     main.exe --workload <catalog-build|serve-zipf|warm-lazy> --seed N
              --seconds S --trace <0|1> --out-dir DIR [--git-rev REV]

   Every workload runs the same pipeline a user runs — generate a graph,
   build schemes, snapshot and reload them, route queries — and differs in
   the graph, the scheme set and which stage is the measured phase (see
   README.md). With --trace 0 the final line carries the end-to-end
   metrics; with --trace 1 the benchmark records spans around its calls
   into each layer and the final line carries the per-layer metrics. *)

open Cr_graph
open Cr_routing
open Cr_core

let eps = 0.5
let span = Trace.span

(* Schemes whose snapshot and lazy-store numbers are reported on every
   workload: the three that warm-lazy serves. *)
let snapshot_ids = [ "tz-k3"; "rt-5eps"; "rt-4km7-k3" ]
let lazy_ids = [ "rt-5eps"; "rt-4km7-k3" ]

let end_to_end =
  [ "setup_s"; "cold_start_s"; "warm_start_s"; "route_rps"; "peak_rss_mb";
    "table_bytes_per_vertex"; "snapshot_bytes_per_vertex"; "stretch_mean" ]

let per_layer =
  [ "graph.gen_s"; "graph.bytes_per_vertex"; "dijkstra.spt_us";
    "dijkstra.until_us"; "substrate.s"; "substrate.misses";
    "substrate.hit_ratio"; "substrate.spt_misses"; "substrate.vicinity_misses";
    "substrate.cluster_misses" ]
  @ List.concat_map
      (fun id ->
        [ "build." ^ id ^ ".s"; "assembly." ^ id ^ ".s"; "route." ^ id ^ ".ns" ])
      snapshot_ids
  @ [ "forward.hops_per_route"; "forward.ns_per_hop"; "forward.lookups_per_hop";
      "forward.alloc_words_per_route"; "pool.batch_speedup"; "traffic.window_us";
      "traffic.late_p99_us"; "traffic.late_max_us"; "route_p50_us"; "route_p99_us" ]
  @ List.concat_map
      (fun id ->
        List.map
          (fun k -> "snapshot." ^ id ^ "." ^ k)
          [ "encode_s"; "load_mmap_s"; "load_verified_s"; "bytes" ])
      snapshot_ids
  @ List.concat_map
      (fun id -> [ "lazy." ^ id ^ ".first_pass_s"; "lazy." ^ id ^ ".second_pass_s" ])
      lazy_ids
  @ [ "trace.overhead_pct" ]

(* ---------- workload shapes ---------- *)

type shape = {
  n : int;
  weighted : bool;  (* uniform weights in [1, 8], packed float32 CSR *)
  lazy_n : int;  (* CR_RT_LAZY_N for the run *)
  ids : string list;  (* schemes built *)
  stream : int;  (* Zipf queries in the route-loop stream *)
  rate : float;  (* open-loop arrival rate, queries per second *)
}

let catalog_shape =
  { n = 500; weighted = false; lazy_n = 10_000; ids = Catalog.ids ();
    stream = 4_000; rate = 100_000.0 }

let serve_shape = catalog_shape

let lazy_shape =
  { n = 3_000; weighted = true; lazy_n = 1_500; ids = snapshot_ids;
    stream = 2_000; rate = 100_000.0 }

(* Sub-seeds: independent streams derived from the run's seed. *)
let sub seed k = ((seed * 1_000_003) + (k * 7919)) land 0x3fffffff

let gen shape seed =
  span "graph.gen" (fun () ->
      let g = Generators.glp ~seed shape.n in
      if shape.weighted then
        Graph.pack ~float32:true
          (Generators.with_random_weights ~seed:(sub seed 1) ~lo:1.0 ~hi:8.0 g)
      else g)

let entry id =
  match Catalog.find id with Some e -> e | None -> failwith ("no scheme " ^ id)

let first_answer g inst =
  let n = Graph.n g in
  let o = span "forward.first" (fun () -> Scheme.route_fast inst ~src:0 ~dst:(n - 1)) in
  Report.check (Port_model.delivered_to o (n - 1)) (inst.Scheme.name ^ ": first answer")

type built = { e : Catalog.entry; inst : Scheme.instance; ab : float * float }

type cold = { sub_h : Substrate.t; built : built list; walls : float list; wall : float }

(* From a graph in memory to a first routed answer from every scheme, on one
   shared substrate handle, the way [cr_cli compile] and [serve] build. *)
let cold_build ~seed g ids =
  let t0 = Clock.now_ns () in
  let sub_h = Substrate.create g in
  let pairs =
    List.map
      (fun id ->
        let e = entry id in
        let (inst, ab), dt =
          Clock.time (fun () ->
              span ("assembly.build." ^ id) (fun () ->
                  e.Catalog.build ~substrate:sub_h ~seed ~eps g))
        in
        first_answer g inst;
        ({ e; inst; ab }, dt))
      ids
  in
  { sub_h; built = List.map fst pairs; walls = List.map snd pairs;
    wall = Clock.secs_since t0 }

(* ---------- query streams ---------- *)

type stream = { src : int array; dst : int array; dist : float array }

let stream_list s =
  List.init (Array.length s.src) (fun j -> ((s.src.(j), s.dst.(j)), s.dist.(j)))

(* Zipf 1.0 pairs; distances from an exact oracle when one exists, else one
   shortest-path tree per distinct source. *)
let zipf_stream ~seed ?apsp g count =
  let t = Traffic.create ~zipf:1.0 ~seed ~n:(Graph.n g) () in
  let src = Array.make count 0 and dst = Array.make count 0 in
  for k = 0 to count - 1 do
    let s, d = Traffic.pair t k in
    src.(k) <- s;
    dst.(k) <- d
  done;
  let dist =
    match apsp with
    | Some a -> Array.init count (fun k -> Apsp.dist a src.(k) dst.(k))
    | None ->
      let dist = Array.make count infinity in
      let by_src = Hashtbl.create 256 in
      Array.iteri (fun k s -> Hashtbl.replace by_src s (k :: Option.value ~default:[] (Hashtbl.find_opt by_src s))) src;
      let ws = Dijkstra.workspace (Graph.n g) in
      Hashtbl.iter
        (fun s ks ->
          Dijkstra.with_spt ws g s (fun tr ->
              List.iter (fun k -> dist.(k) <- tr.Dijkstra.dist.(dst.(k))) ks))
        by_src;
      dist
  in
  { src; dst; dist }

(* ---------- correctness gates ---------- *)

let stretch_sum = ref 0.0
let stretch_n = ref 0

(* Every evaluated pair must be delivered within its scheme's proven
   (alpha, beta). [stretch] adds the pairs to stretch_mean. *)
let gate_eval ?(stretch = false) name (alpha, beta) (ev : Scheme.eval) =
  let bad = ref ev.Scheme.failures in
  Array.iter
    (fun (d, l) ->
      if l > (alpha *. d) +. beta +. 1e-9 then incr bad;
      if stretch then begin
        stretch_sum := !stretch_sum +. (l /. d);
        incr stretch_n
      end)
    ev.Scheme.samples;
  Report.tally
    ~n:(Array.length ev.Scheme.samples + ev.Scheme.failures)
    ~bad:!bad
    (Printf.sprintf "%s: pairs outside (%g, %g) or undelivered" name alpha beta)

(* ---------- open loop ---------- *)

(* A single-thread driver that routes query k at its [Traffic.arrival] due
   time, round-robin over the instances, cycling the stream. Latency runs
   from the due time, so a stall delays every query behind it; [late] is
   how far behind schedule the driver itself started each query. *)
let open_loop ~seed ~rate ~seconds g insts (s : stream) =
  let insts = Array.of_list insts in
  let ni = Array.length insts and q = Array.length s.src in
  let count = max 1000 (int_of_float (rate *. seconds)) in
  let t = Traffic.create ~zipf:1.0 ~rate ~seed ~n:(Graph.n g) () in
  let due = Array.init count (fun k -> int_of_float (Traffic.arrival t k *. 1e9)) in
  let lat = Clock.samples count and late = Clock.samples count in
  let bad = ref 0 in
  span "traffic.open_loop" (fun () ->
      let t0 = Clock.now_ns () + 1_000_000 in
      for k = 0 to count - 1 do
        let d = t0 + due.(k) in
        while Clock.now_ns () < d do () done;
        let start = Clock.now_ns () in
        let j = k mod q in
        let o =
          Scheme.route_fast ~record_path:false ~detect_loops:false
            insts.(k mod ni) ~src:s.src.(j) ~dst:s.dst.(j)
        in
        let stop = Clock.now_ns () in
        if not (Port_model.delivered_to o s.dst.(j)) then incr bad;
        Clock.push lat (stop - d);
        Clock.push late (start - d);
        if k land 63 = 0 then Trace.leaf ~req:k "forward.route" ~start_ns:start ~stop_ns:stop
      done);
  Report.tally ~n:count ~bad:!bad "open loop: undelivered";
  let us ns = float_of_int ns *. 1e-3 in
  let c = Clock.count lat in
  Report.add ~samples:c "route_p50_us" "us" (us (Clock.quantile_ns lat 0.5));
  Report.add ~samples:c "route_p99_us" "us" (us (Clock.quantile_ns lat 0.99));
  Report.add ~samples:c "traffic.late_p99_us" "us" (us (Clock.quantile_ns late 0.99));
  Report.add ~samples:c "traffic.late_max_us" "us" (us (Clock.max_ns late))

(* ---------- snapshots ---------- *)

let file_bytes path = (Unix.stat path).Unix.st_size

let load ?(verify = false) ~seed g (b : built) path =
  match
    span ("snapshot.load." ^ b.e.Catalog.id) (fun () ->
        Catalog.load_entry ~verify ~path ~seed ~eps g b.e)
  with
  | Ok (inst, _) ->
    Report.check true "";
    Some inst
  | Error err ->
    Report.check false (b.e.Catalog.id ^ ": load: " ^ Snapshot.error_to_string err);
    None

(* Encode every built scheme with [save_entry] on the warm handle. *)
let save_all ~seed ~dir g sub_h built =
  List.filter_map
    (fun b ->
      let r, dt =
        Clock.time (fun () ->
            span ("snapshot.encode." ^ b.e.Catalog.id) (fun () ->
                Catalog.save_entry ~substrate:sub_h ~dir ~seed ~eps g b.e))
      in
      match r with
      | Ok path -> Some (b, path, dt)
      | Error err ->
        Report.check false (b.e.Catalog.id ^ ": save: " ^ Snapshot.error_to_string err);
        None)
    built

(* From snapshot files to a first routed answer from every scheme. *)
let warm_start ~seed g saved =
  let t0 = Clock.now_ns () in
  let insts =
    List.filter_map
      (fun (b, path, _) ->
        Option.map
          (fun inst ->
            first_answer g inst;
            (b, inst))
          (load ~seed g b path))
      saved
  in
  (insts, Clock.secs_since t0)

(* The Zipf stream routed twice through each instance on the default pool:
   the first pass fills lazy stores, the second reads them. *)
let two_passes (s : stream) insts =
  let pairs = stream_list s in
  List.map
    (fun ((b : built), inst) ->
      let id = b.e.Catalog.id in
      let e1, t1 =
        Clock.time (fun () -> span ("lazy.pass1." ^ id) (fun () -> Scheme.evaluate_sampled inst pairs))
      in
      let e2, t2 =
        Clock.time (fun () -> span ("lazy.pass2." ^ id) (fun () -> Scheme.evaluate_sampled inst pairs))
      in
      Report.check (e1 = e2) (id ^ ": second pass differs from the first");
      (b, e1, t1, t2))
    insts

let snapshot_metrics ~trace ~seed g saved =
  List.iter
    (fun ((b : built), path, enc) ->
      let id = b.e.Catalog.id in
      if trace && List.mem id snapshot_ids then begin
        let p = "snapshot." ^ id ^ "." in
        Report.add (p ^ "encode_s") "s" enc;
        Report.add (p ^ "bytes") "B" (float_of_int (file_bytes path));
        let mm = List.init 3 (fun _ -> snd (Clock.time (fun () -> load ~seed g b path))) in
        Report.add ~samples:3 (p ^ "load_mmap_s") "s" (Clock.median mm);
        let vv =
          List.init 3 (fun _ -> snd (Clock.time (fun () -> load ~verify:true ~seed g b path)))
        in
        Report.add ~samples:3 (p ^ "load_verified_s") "s" (Clock.median vv)
      end)
    saved;
  let total = List.fold_left (fun a (_, p, _) -> a + file_bytes p) 0 saved in
  Report.add "snapshot_bytes_per_vertex" "B" (float_of_int total /. float_of_int (Graph.n g))

(* A loaded instance must answer the probe exactly as the fresh build. *)
let gate_loaded ~probe loaded built =
  List.iter
    (fun ((b : built), inst) ->
      let fresh = List.find (fun x -> x.e.Catalog.id = b.e.Catalog.id) built in
      Report.check (probe inst = probe fresh.inst)
        (b.e.Catalog.id ^ ": loaded instance differs from the fresh build"))
    loaded

let lazy_metrics passes =
  List.iter
    (fun ((b : built), ts) ->
      let id = b.e.Catalog.id in
      if List.mem id lazy_ids then begin
        let k = List.length ts in
        Report.add ~samples:k ("lazy." ^ id ^ ".first_pass_s") "s" (Clock.median (List.map fst ts));
        Report.add ~samples:k ("lazy." ^ id ^ ".second_pass_s") "s" (Clock.median (List.map snd ts))
      end)
    passes

(* ---------- shared measurements ---------- *)

let table_bytes g insts =
  let graph_words = Obj.reachable_words (Obj.repr g) in
  let words = Obj.reachable_words (Obj.repr insts) - graph_words in
  let big = List.fold_left (fun a i -> a + i.Scheme.big_bytes) 0 insts in
  Report.add "table_bytes_per_vertex" "B"
    (float_of_int ((8 * max 0 words) + big) /. float_of_int (Graph.n g))

(* The process's peak RSS (VmHWM) over one world. Writing 5 to
   clear_refs resets the high-water mark to the current RSS, so each world
   reads its own peak and the run reports their median; where the kernel
   refuses, the mark keeps accumulating across worlds. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

let peak_rss () =
  Report.add "peak_rss_mb" "MB" (float_of_int (Mem_probe.peak ()).Mem_probe.bytes /. 1048576.0)

(* Per-layer numbers measured after the workload's own phases. *)
let layer_metrics ~seed g cold (s : stream) insts =
  let n = Graph.n g in
  Report.add "graph.bytes_per_vertex" "B" (float_of_int (Graph.storage_bytes g) /. float_of_int n);
  (* dijkstra: full trees and early-stopped trees from a fixed root sample *)
  let ws = Dijkstra.workspace n in
  let roots = Array.init 32 (fun i -> (sub seed (100 + i)) mod n) in
  let spt =
    List.init (Array.length roots) (fun i ->
        snd (Clock.time (fun () -> span "dijkstra.spt" (fun () -> Dijkstra.with_spt ws g roots.(i) ignore))))
  in
  Report.add ~samples:(List.length spt) "dijkstra.spt_us" "us" (1e6 *. Clock.mean spt);
  let until =
    List.init (Array.length roots) (fun i ->
        let target = s.dst.(i mod Array.length s.dst) in
        snd
          (Clock.time (fun () ->
               span "dijkstra.until" (fun () ->
                   Dijkstra.with_spt_until ws g roots.(i) ~until:target ignore))))
  in
  Report.add ~samples:(List.length until) "dijkstra.until_us" "us" (1e6 *. Clock.mean until);
  (* substrate and assembly: the cold handle's counters, then a rebuild of
     every scheme on the now-warm handle *)
  let st = Substrate.stats cold.sub_h in
  let hits = Substrate.hits st and misses = Substrate.misses st in
  Report.add "substrate.misses" "count" (float_of_int misses);
  Report.add "substrate.hit_ratio" "ratio" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
  Report.add "substrate.spt_misses" "count" (float_of_int (st.spt_misses + st.spt_tree_misses));
  Report.add "substrate.vicinity_misses" "count" (float_of_int st.vicinity_misses);
  Report.add "substrate.cluster_misses" "count" (float_of_int (st.centers_misses + st.cluster_misses));
  let rebuild =
    List.map2
      (fun b cold_s ->
        let id = b.e.Catalog.id in
        let _, warm_s =
          Clock.time (fun () ->
              span ("assembly.rebuild." ^ id) (fun () ->
                  b.e.Catalog.build ~substrate:cold.sub_h ~seed ~eps g))
        in
        Report.add ("build." ^ id ^ ".s") "s" cold_s;
        Report.add ("assembly." ^ id ^ ".s") "s" warm_s;
        cold_s -. warm_s)
      cold.built cold.walls
  in
  Report.add "substrate.s" "s" (List.fold_left ( +. ) 0.0 rebuild);
  (* forward: single-thread closed loop over the stream per instance, with
     telemetry off; one more pass with it on counts table lookups *)
  let q = Array.length s.src in
  let tot_ns = ref 0 and tot_hops = ref 0 and tot_words = ref 0.0 and routes = ref 0 in
  List.iter
    (fun ((b : built), inst) ->
      let tel = Telemetry.enabled () in
      Telemetry.set_enabled false;
      let hops = ref 0 and bad = ref 0 in
      let w0 = Gc.minor_words () in
      let t0 = Clock.now_ns () in
      for j = 0 to q - 1 do
        let o =
          Scheme.route_fast ~record_path:false ~detect_loops:false inst ~src:s.src.(j)
            ~dst:s.dst.(j)
        in
        hops := !hops + o.Port_model.hops;
        if not (Port_model.delivered_to o s.dst.(j)) then incr bad
      done;
      let ns = Clock.now_ns () - t0 in
      let words = Gc.minor_words () -. w0 in
      Telemetry.set_enabled tel;
      Report.tally ~n:q ~bad:!bad (b.e.Catalog.id ^ ": route loop undelivered");
      Report.add ~samples:q ("route." ^ b.e.Catalog.id ^ ".ns") "ns"
        (float_of_int ns /. float_of_int q);
      tot_ns := !tot_ns + ns;
      tot_hops := !tot_hops + !hops;
      tot_words := !tot_words +. words;
      routes := !routes + q)
    insts;
  let lookups =
    let was = Telemetry.enabled () in
    Telemetry.set_enabled true;
    let t0 = Telemetry.totals () in
    List.iter
      (fun (_, inst) ->
        Array.iteri
          (fun j src -> ignore (Scheme.route_fast ~record_path:false ~detect_loops:false inst ~src ~dst:s.dst.(j)))
          s.src)
      insts;
    let t1 = Telemetry.totals () in
    Telemetry.set_enabled was;
    t1.table_lookups - t0.table_lookups
  in
  let hops = float_of_int (max 1 !tot_hops) in
  Report.add ~samples:!routes "forward.hops_per_route" "hops" (hops /. float_of_int !routes);
  Report.add ~samples:!routes "forward.ns_per_hop" "ns" (float_of_int !tot_ns /. hops);
  Report.add ~samples:!routes "forward.lookups_per_hop" "count" (float_of_int lookups /. hops);
  Report.add ~samples:!routes "forward.alloc_words_per_route" "words"
    (!tot_words /. float_of_int !routes);
  (* pool: the stream through evaluate_sampled on one domain vs the default
     pool *)
  let pairs = stream_list s in
  let one = Pool.create ~domains:1 () in
  let sweep pool =
    snd (Clock.time (fun () -> List.iter (fun (_, i) -> ignore (Scheme.evaluate_sampled ~pool i pairs)) insts))
  in
  let ratios =
    List.init 3 (fun _ -> sweep one /. sweep (Pool.default ()))
  in
  Report.add ~samples:3 "pool.batch_speedup" "ratio" (Clock.median ratios)

(* ---------- workloads ---------- *)

(* A run measures [worlds] independent graphs, each with its own query
   streams, one after the other, so only one is resident at a time. A
   metric's value is the median over worlds of its per-world value (itself
   a median over repetitions), which keeps much of the graph-to-graph
   spread of one seed's inputs out of the run-to-run comparison. *)
let worlds = 3

type run = { seed : int; seconds : float; trace : bool; dir : string }

let world_seed run w = sub run.seed (1000 + w)

(* Traced runs alternate traced and untraced repetitions of the measured
   phase; [trace.overhead_pct] compares their medians. *)
let set_traced run on =
  let on = run.trace && on in
  Trace.on := on;
  Telemetry.set_enabled on

let traced_reps = ref []
let setup_walls = ref []

(* Repeat [f i] until [seconds] have passed, at least [min] times; rep [i]
   is traced when [i] is even. [cost], when given, reads the rep's measured
   cost for the tracing-overhead comparison. With [gc], each rep starts from
   a fully collected heap, so one rep's garbage is not the next one's GC
   work. *)
let repeat ?(gc = true) ?cost run ~seconds f =
  let t0 = Clock.now_ns () in
  let min = if run.trace then 2 else 1 in
  let rec go i acc =
    if i >= min && Clock.secs_since t0 >= seconds then List.rev acc
    else begin
      if gc then Gc.full_major ();
      set_traced run (i mod 2 = 0);
      let r = f i in
      set_traced run true;
      (match cost with
       | Some c when run.trace -> traced_reps := (i mod 2 = 0, c r) :: !traced_reps
       | _ -> ());
      go (i + 1) (r :: acc)
    end
  in
  go 0 []

(* Repeat [f] [k] times and keep the last result with the median wall. *)
let timed_k k f =
  let rec go i acc =
    let r, t = Clock.time f in
    if i + 1 >= k then (r, Clock.median (t :: acc)) else go (i + 1) (t :: acc)
  in
  go 0 []

(* Snapshot, reload and route the built schemes: the part of the pipeline
   after the build, shared by catalog-build and serve-zipf. *)
let after_build run ~seed g cold ~probe ~stream =
  let saved = save_all ~seed ~dir:run.dir g cold.sub_h cold.built in
  let loaded, warm =
    timed_k 2 (fun () ->
        Gc.full_major ();
        fst (warm_start ~seed g saved))
  in
  Report.add ~samples:2 "warm_start_s" "s" warm;
  gate_loaded ~probe loaded cold.built;
  snapshot_metrics ~trace:run.trace ~seed g saved;
  table_bytes g (List.map (fun b -> b.inst) cold.built);
  if run.trace then begin
    let lazy_insts = List.filter (fun (b, _) -> List.mem b.e.Catalog.id lazy_ids) loaded in
    lazy_metrics (List.map (fun (b, _, t1, t2) -> (b, [ (t1, t2) ])) (two_passes stream lazy_insts));
    layer_metrics ~seed g cold stream (List.map (fun b -> (b, b.inst)) cold.built)
  end

let catalog_world run w ~seconds =
  let shape = catalog_shape and seed = world_seed run w in
  (* set-up is graph generation alone, a few milliseconds: repeated *)
  let g, gen_s = timed_k 8 (fun () -> gen shape seed) in
  setup_walls := gen_s :: !setup_walls;
  Report.add ~samples:8 "graph.gen_s" "s" gen_s;
  (* measured: cold builds of the whole catalog, each on a fresh handle;
     only the last one stays alive *)
  let last = ref None in
  let walls =
    repeat run ~seconds ~cost:Fun.id (fun _ ->
        last := None;
        let c = span "catalog.cold_build" (fun () -> cold_build ~seed g shape.ids) in
        last := Some c;
        c.wall)
  in
  Report.add ~samples:(List.length walls) "cold_start_s" "s" (Clock.median walls);
  let cold = Option.get !last in
  (* the probe: 2000 pairs against an exact oracle, every pair gated, then
     swept through every scheme on the default pool as the closed loop *)
  let apsp = span "graph.apsp" (fun () -> Apsp.compute g) in
  let probe_pairs = Scheme.sample_pairs ~seed:(sub seed 3) ~n:shape.n ~count:2_000 in
  let probe inst = Scheme.evaluate_batch inst apsp probe_pairs in
  List.iter (fun b -> gate_eval ~stretch:true b.e.Catalog.id b.ab (probe b.inst)) cold.built;
  let sweeps =
    repeat ~gc:false run ~seconds:1.0 (fun _ ->
        snd
          (Clock.time (fun () ->
               span "pool.probe_sweep" (fun () -> List.iter (fun b -> ignore (probe b.inst)) cold.built))))
  in
  let k = List.length sweeps and nb = List.length cold.built in
  let routes = float_of_int (List.length probe_pairs * nb) in
  Report.add ~samples:k "route_rps" "1/s" (routes /. Clock.median sweeps);
  Report.add ~samples:(k * nb) "traffic.window_us" "us" (1e6 *. Clock.median sweeps /. float_of_int nb);
  let stream = zipf_stream ~seed:(sub seed 2) ~apsp g shape.stream in
  after_build run ~seed g cold ~probe ~stream;
  open_loop ~seed:(sub seed 4) ~rate:shape.rate ~seconds:0.5 g
    (List.map (fun b -> b.inst) cold.built) stream

(* Every served pair within (alpha, beta), and, with [identity], each
   instance's segments equal to evaluate_batch over the same pairs. *)
let gate_served ~identity ~stretch apsp built (rep : Traffic.report) =
  List.iter2
    (fun b (sv : Traffic.served) ->
      let segs = sv.Traffic.segments in
      let served = Scheme.concat_evals (List.map (fun (sg : Traffic.segment) -> sg.Traffic.eval) segs) in
      let pairs = List.concat_map (fun (sg : Traffic.segment) -> sg.Traffic.pairs) segs in
      gate_eval ~stretch b.e.Catalog.id b.ab served;
      if identity then
        Report.check (served = Scheme.evaluate_batch b.inst apsp pairs)
          (b.e.Catalog.id ^ ": Traffic.serve eval differs from evaluate_batch"))
    built rep.Traffic.served

let serve_world run w ~seconds =
  let shape = serve_shape and seed = world_seed run w in
  let (g, cold, apsp), setup_s =
    Clock.time (fun () ->
        let g, gen_s = Clock.time (fun () -> gen shape seed) in
        Report.add "graph.gen_s" "s" gen_s;
        let cold = cold_build ~seed g shape.ids in
        (g, cold, span "graph.apsp" (fun () -> Apsp.compute g)))
  in
  setup_walls := setup_s :: !setup_walls;
  Report.add "cold_start_s" "s" cold.wall;
  let instances = List.map (fun b -> b.inst) cold.built in
  (* measured, first half: closed-loop capacity through Traffic.serve on the
     default pool, a fresh Zipf traffic seed per call. Each call is gated
     untimed right after it; the first is also replayed through
     evaluate_batch. *)
  let windows = ref [] in
  let calls =
    repeat ~gc:false run ~seconds:(seconds /. 2.0) ~cost:(fun rps -> 1.0 /. rps) (fun i ->
        let t = Traffic.create ~zipf:1.0 ~seed:(sub seed (10 + i)) ~n:shape.n () in
        let last = ref 0.0 in
        let on_window ~routed:_ ~elapsed =
          windows := (elapsed -. !last) :: !windows;
          last := elapsed
        in
        let rep =
          span "traffic.serve" (fun () ->
              Traffic.serve ~pace:false ~on_window t ~budget:20_000 ~instances ~apsp)
        in
        gate_served ~identity:(i = 0) ~stretch:(i = 0) apsp cold.built rep;
        rep.Traffic.rps)
  in
  Report.add ~samples:(List.length calls) "route_rps" "1/s" (Clock.median calls);
  Report.add ~samples:(List.length !windows) "traffic.window_us" "us" (1e6 *. Clock.median !windows);
  (* measured, second half: open-loop latency at one fixed rate *)
  let stream = zipf_stream ~seed:(sub seed 2) ~apsp g shape.stream in
  open_loop ~seed:(sub seed 4) ~rate:shape.rate ~seconds:(seconds /. 2.0) g instances stream;
  let probe_pairs = Scheme.sample_pairs ~seed:(sub seed 3) ~n:shape.n ~count:2_000 in
  after_build run ~seed g cold ~probe:(fun inst -> Scheme.evaluate_batch inst apsp probe_pairs) ~stream

let lazy_world run w ~seconds =
  let shape = lazy_shape and seed = world_seed run w in
  (* set-up: build, first answer and save_entry on one shared handle, plus
     the stream's distances *)
  let (g, cold, saved, stream), setup_s =
    Clock.time (fun () ->
        let g, gen_s = Clock.time (fun () -> gen shape seed) in
        Report.add "graph.gen_s" "s" gen_s;
        let cold = cold_build ~seed g shape.ids in
        let saved = save_all ~seed ~dir:run.dir g cold.sub_h cold.built in
        (g, cold, saved, zipf_stream ~seed:(sub seed 2) g shape.stream))
  in
  setup_walls := setup_s :: !setup_walls;
  Report.add "cold_start_s" "s" cold.wall;
  (* measured: mmap load and first answer, then the stream twice. Only
     timings survive a repetition, so loaded instances and their filled
     stores never pile up; the last one's stay for the gates. *)
  let pass_wall (_, ps) = List.fold_left (fun a (_, (t1, t2)) -> a +. t1 +. t2) 0.0 ps in
  let last = ref None in
  let reps =
    repeat run ~seconds ~cost:pass_wall (fun _ ->
        last := None;
        let loaded, warm, passes =
          span "warm.rep" (fun () ->
              let loaded, warm = warm_start ~seed g saved in
              (loaded, warm, two_passes stream loaded))
        in
        last := Some (loaded, passes);
        (warm, List.map (fun (b, _, t1, t2) -> (b, (t1, t2))) passes))
  in
  let k = List.length reps in
  Report.add ~samples:k "warm_start_s" "s" (Clock.median (List.map fst reps));
  let routes = float_of_int (2 * shape.stream * List.length shape.ids) in
  Report.add ~samples:k "route_rps" "1/s" (Clock.median (List.map (fun r -> routes /. pass_wall r) reps));
  Report.add ~samples:(k * 2 * List.length shape.ids) "traffic.window_us" "us"
    (1e6 *. Clock.median (List.concat_map (fun (_, ps) -> List.concat_map (fun (_, (a, b)) -> [ a; b ]) ps) reps));
  let loaded, passes = Option.get !last in
  List.iter (fun ((b : built), ev, _, _) -> gate_eval ~stretch:true b.e.Catalog.id b.ab ev) passes;
  let sampled = Workload.sampled_pairs ~seed:(sub seed 3) ~sources:16 ~per_source:32 g in
  gate_loaded ~probe:(fun inst -> Scheme.evaluate_sampled inst sampled) loaded cold.built;
  lazy_metrics
    (List.map
       (fun b -> (b, List.concat_map (fun (_, ps) -> List.filter_map (fun (b', t) -> if b' == b then Some t else None) ps) reps))
       cold.built);
  snapshot_metrics ~trace:run.trace ~seed g saved;
  table_bytes g (List.map (fun b -> b.inst) cold.built);
  open_loop ~seed:(sub seed 4) ~rate:shape.rate ~seconds:0.5 g (List.map snd loaded) stream;
  if run.trace then layer_metrics ~seed g cold stream loaded

(* ---------- entry point ---------- *)

let workloads =
  [ ("catalog-build", (catalog_shape, catalog_world));
    ("serve-zipf", (serve_shape, serve_world));
    ("warm-lazy", (lazy_shape, lazy_world)) ]

let overhead () =
  let reps = !traced_reps in
  let t = List.filter_map (fun (tr, x) -> if tr then Some x else None) reps in
  let u = List.filter_map (fun (tr, x) -> if tr then None else Some x) reps in
  Report.add ~samples:(List.length reps) "trace.overhead_pct" "%"
    (100.0 *. ((Clock.median t /. Clock.median u) -. 1.0))

let usage () =
  prerr_endline
    "usage: main.exe --workload <catalog-build|serve-zipf|warm-lazy> --seed N \
     --seconds S --trace <0|1> --out-dir DIR [--git-rev REV]";
  exit 2

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace args (String.sub k 2 (String.length k - 2)) v;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let name = get "workload" in
  let shape, body = match List.assoc_opt name workloads with Some w -> w | None -> usage () in
  let seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  let out = get "out-dir" in
  let seed = int "seed" in
  let dir = Filename.concat out (Printf.sprintf "snap-%d" (Unix.getpid ())) in
  Unix.mkdir dir 0o755;
  Unix.putenv "CR_RT_LAZY_N" (string_of_int shape.lazy_n);
  let run = { seed; seconds = float_of_int seconds; trace = trace = 1; dir } in
  set_traced run true;
  let t0 = Clock.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      for w = 0 to worlds - 1 do
        Gc.full_major ();
        reset_peak_rss ();
        body run w ~seconds:(run.seconds /. float_of_int worlds);
        peak_rss ()
      done);
  set_traced run false;
  Report.add ~samples:(List.length !setup_walls) "setup_s" "s" (Clock.median !setup_walls);
  if run.trace then overhead ();
  if !stretch_n = 0 then Report.check false "no pair was evaluated"
  else Report.add ~samples:!stretch_n "stretch_mean" "ratio" (!stretch_sum /. float_of_int !stretch_n);
  let fail_frac = float_of_int !Report.failed /. float_of_int (max 1 !Report.attempted) in
  Report.add ~samples:!Report.attempted "fail_frac" "ratio" fail_frac;
  if run.trace then
    List.iter (fun (l, s) -> Report.add ("self." ^ l ^ "_s") "s" s) (Trace.self_times ());
  let stem = Printf.sprintf "%s-seed%d-trace%d" name seed trace in
  let header =
    [ ("git_rev", Printf.sprintf "%S" (Option.value ~default:"unknown" (Hashtbl.find_opt args "git-rev")));
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
      ("seed", string_of_int seed);
      ("workload", Printf.sprintf "%S" name);
      ("trace", string_of_int trace);
      ("seconds", string_of_int seconds);
      ("wall_s", Report.json_value (Clock.secs_since t0)) ]
  in
  Report.write_result ~path:(Filename.concat out (stem ^ ".json")) ~header;
  if run.trace then Trace.write_jsonl (Filename.concat out (stem ^ ".spans.jsonl"));
  Printf.printf "%s  seed=%d  n=%d  %d of %d operations failed\n" name seed shape.n
    !Report.failed !Report.attempted;
  Report.print_table ();
  Report.print_summary (if run.trace then per_layer else end_to_end);
  if !Report.failed > 0 then exit 1
