(* The routing tables and the batched query engine.

   The contract under test: the compiled containers answer exactly as the
   build-time hashtables they are built from, and
   [Scheme.evaluate_batch] is bit-identical to the serial
   [Scheme.evaluate] regardless of domain count. Per-route outcomes of
   every catalog scheme are pinned by the golden route signatures
   ([test_golden.ml]). *)
open Util
open Cr_graph
open Cr_routing
open Cr_core

(* ------------------------------------------------------------------ *)
(* Compiled containers vs the hashtables they are built from           *)
(* ------------------------------------------------------------------ *)

let gen_bindings =
  QCheck2.Gen.(
    small_list (pair (int_range 0 500) (int_range 0 1_000_000)))

let test_intmap_matches_hashtbl =
  qcheck ~count:300 "Intmap.of_hashtbl answers as Hashtbl.find" gen_bindings
    (fun bindings ->
      let h = Hashtbl.create 16 in
      List.iter (fun (k, v) -> Hashtbl.replace h k v) bindings;
      let m = Compiled.Intmap.of_hashtbl h in
      Compiled.Intmap.cardinal m = Hashtbl.length h
      && List.for_all
           (fun k ->
             Compiled.Intmap.find_opt m k = Hashtbl.find_opt h k
             && Compiled.Intmap.mem m k = Hashtbl.mem h k)
           (List.init 520 Fun.id))

let test_intmap_sparse =
  qcheck ~count:100 "Intmap falls back to binary search on sparse keys"
    QCheck2.Gen.(small_list (int_range 0 1_000_000))
    (fun keys ->
      let h = Hashtbl.create 16 in
      List.iter (fun k -> Hashtbl.replace h k (k * 2)) keys;
      let m = Compiled.Intmap.of_hashtbl h in
      List.for_all
        (fun k ->
          Compiled.Intmap.find m k = k * 2
          && not (Compiled.Intmap.mem m (k + 1_000_001)))
        keys)

let test_table_matches_hashtbl =
  qcheck ~count:200 "Table.of_hashtbl answers as Hashtbl.find" gen_bindings
    (fun bindings ->
      let h = Hashtbl.create 16 in
      List.iter (fun (k, v) -> Hashtbl.replace h k (string_of_int v)) bindings;
      let t = Compiled.Table.of_hashtbl h in
      Compiled.Table.cardinal t = Hashtbl.length h
      && List.for_all
           (fun k -> Compiled.Table.find_opt t k = Hashtbl.find_opt h k)
           (List.init 520 Fun.id))

let test_bitset_matches_hashtbl =
  qcheck ~count:200 "Bitset.of_hashtbl_keys answers as Hashtbl.mem"
    QCheck2.Gen.(small_list (int_range 0 99))
    (fun keys ->
      let h = Hashtbl.create 16 in
      List.iter (fun k -> Hashtbl.replace h k ()) keys;
      let s = Compiled.Bitset.of_hashtbl_keys ~n:100 h in
      Compiled.Bitset.cardinal s = Hashtbl.length h
      && List.for_all
           (fun k -> Compiled.Bitset.mem s k = Hashtbl.mem h k)
           (List.init 100 Fun.id)
      && (not (Compiled.Bitset.mem s 100))
      && not (Compiled.Bitset.mem s (-1)))

let catalog_graph seed =
  Generators.connect ~seed (Generators.gnp ~seed:(seed + 400) 44 0.12)

(* ------------------------------------------------------------------ *)
(* Whole catalog: the simulator knobs change only the path             *)
(* ------------------------------------------------------------------ *)

let test_catalog_knobs_change_only_path =
  qcheck ~count:4 "catalog: knobs off change only the path, random graphs"
    QCheck2.Gen.(int_range 0 1_000)
    (fun seed ->
      let g = catalog_graph seed in
      let n = Graph.n g in
      let pairs = Scheme.sample_pairs ~seed ~n ~count:120 in
      List.for_all
        (fun (e : Catalog.entry) ->
          let inst, _ = e.Catalog.build ~seed:(seed + 7) ~eps:0.5 g in
          List.for_all
            (fun (u, v) ->
              let full = Scheme.route inst ~src:u ~dst:v in
              let pathless =
                Scheme.route ~record_path:false ~detect_loops:false inst ~src:u
                  ~dst:v
              in
              pathless = { full with Port_model.path = [] })
            pairs)
        Catalog.all)

(* ------------------------------------------------------------------ *)
(* Batched query engine: bit-identical merges at any domain count      *)
(* ------------------------------------------------------------------ *)

let test_batch_matches_serial () =
  let g = catalog_graph 11 in
  let apsp = Apsp.compute g in
  let pairs = Scheme.sample_pairs ~seed:23 ~n:(Graph.n g) ~count:150 in
  let pool1 = Pool.create ~domains:1 () in
  let pool4 = Pool.create ~domains:4 () in
  List.iter
    (fun (e : Catalog.entry) ->
      let inst, _ = e.Catalog.build ~seed:9 ~eps:0.5 g in
      let serial = Scheme.evaluate inst apsp pairs in
      checkb (e.Catalog.id ^ " 1-domain") true
        (Scheme.evaluate_batch ~pool:pool1 inst apsp pairs = serial);
      checkb (e.Catalog.id ^ " 4-domain") true
        (Scheme.evaluate_batch ~pool:pool4 inst apsp pairs = serial))
    Catalog.all

let test_batch_matches_serial_under_faults () =
  (* The batch engine routes with path recording and loop detection off,
     the serial sweep with both on; under faults the evals must still
     match bit for bit. *)
  let g = catalog_graph 17 in
  let apsp = Apsp.compute g in
  let pairs = Scheme.sample_pairs ~seed:29 ~n:(Graph.n g) ~count:120 in
  let plan = Fault.compile (Fault.spec ~seed:71 ~link_failure_rate:0.05 ()) g in
  let pool = Pool.create ~domains:4 () in
  List.iter
    (fun (e : Catalog.entry) ->
      let inst, _ = e.Catalog.build ~seed:13 ~eps:0.5 g in
      let serial = Scheme.evaluate_under_faults ~faults:plan inst apsp pairs in
      checkb e.Catalog.id true
        (Scheme.evaluate_batch ~pool ~faults:plan inst apsp pairs = serial))
    Catalog.all

(* ------------------------------------------------------------------ *)
(* sample_pairs: the dense regime must not coupon-collect              *)
(* ------------------------------------------------------------------ *)

let test_sample_pairs_dense_terminates () =
  (* count = all - 1 used to rejection-sample the last few pairs for
     coupon-collector time; the enumerate-and-shuffle branch is O(n^2). *)
  let n = 60 in
  let all = n * (n - 1) in
  let pairs = Scheme.sample_pairs ~seed:3 ~n ~count:(all - 1) in
  checki "count" (all - 1) (List.length pairs);
  let seen = Hashtbl.create all in
  List.iter
    (fun (u, v) ->
      checkb "distinct endpoints" true (u <> v);
      checkb "in range" true (u >= 0 && u < n && v >= 0 && v < n);
      checkb "no duplicate pair" false (Hashtbl.mem seen (u, v));
      Hashtbl.replace seen (u, v) ())
    pairs

let test_sample_pairs_all () =
  let n = 12 in
  let all = n * (n - 1) in
  checki "count >= all returns all" all
    (List.length (Scheme.sample_pairs ~seed:3 ~n ~count:(all + 5)));
  (* The dense branch stays deterministic per seed. *)
  checkb "deterministic" true
    (Scheme.sample_pairs ~seed:4 ~n ~count:(all - 3)
    = Scheme.sample_pairs ~seed:4 ~n ~count:(all - 3))

(* ------------------------------------------------------------------ *)
(* Percentiles: NaN-safe, one sort serves many reads                   *)
(* ------------------------------------------------------------------ *)

let test_percentiles () =
  let ev =
    {
      Scheme.samples = Array.init 100 (fun i -> (1.0, float_of_int (i + 1)));
      failures = 0;
      header_words_peak = 0;
    }
  in
  checkf "p50" 50.0 (Scheme.percentile_stretch ev 0.5);
  checkf "p99" 99.0 (Scheme.percentile_stretch ev 0.99);
  (match Scheme.percentiles ev [ 0.5; 0.99; 1.0 ] with
  | [ a; b; c ] ->
    checkf "batch p50" 50.0 a;
    checkf "batch p99" 99.0 b;
    checkf "batch p100" 100.0 c
  | _ -> Alcotest.fail "percentiles arity");
  (* A NaN sample must not poison the maximum (Float.compare orders it). *)
  let evn =
    {
      Scheme.samples = [| (1.0, 3.0); (0.0, 0.0); (1.0, 2.0) |];
      failures = 0;
      header_words_peak = 0;
    }
  in
  checkf "NaN-safe max" 3.0 (Scheme.max_stretch evn)

let suite =
  [
    test_intmap_matches_hashtbl;
    test_intmap_sparse;
    test_table_matches_hashtbl;
    test_bitset_matches_hashtbl;
    test_catalog_knobs_change_only_path;
    case "evaluate_batch == evaluate (1 and 4 domains)" test_batch_matches_serial;
    case "evaluate_batch == evaluate_under_faults"
      test_batch_matches_serial_under_faults;
    case "sample_pairs count=all-1 terminates" test_sample_pairs_dense_terminates;
    case "sample_pairs dense edge cases" test_sample_pairs_all;
    case "percentiles and NaN safety" test_percentiles;
  ]
