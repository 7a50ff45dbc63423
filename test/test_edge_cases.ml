(* Edge cases and failure injection across the stack: wrong labels must
   not silently deliver to the right vertex, degenerate parameters must
   not crash, and accounting helpers must behave on empty inputs. *)
open Util
open Cr_graph
open Cr_routing
open Cr_core

(* --- failure injection: routing with a wrong destination label goes to
   the label's vertex, not the intended one (and the caller's
   delivered-at-destination check catches it). --- *)

let test_wrong_label_detected () =
  let g = Generators.torus 5 5 in
  let t = Cr_baselines.Tz_routing.preprocess ~seed:201 g ~k:2 in
  let inst = Cr_baselines.Tz_routing.instance t in
  (* Route to 7 but check against 12: the outcome must expose the mismatch
     through [final]. *)
  let o = Scheme.route inst ~src:0 ~dst:7 in
  checkb "delivered somewhere" true (Port_model.delivered o);
  checkb "mismatch detectable" true (o.Port_model.final = 7 && o.Port_model.final <> 12)

(* --- eps extremes --- *)

let test_eps_extremes () =
  let g = Generators.grid 4 5 in
  let apsp = Apsp.compute g in
  List.iter
    (fun eps ->
      let t = Scheme3eps.preprocess ~eps ~seed:203 g in
      let alpha, beta = Scheme3eps.stretch_bound t in
      let inst = Scheme3eps.instance t in
      let ok = ref true in
      for u = 0 to 19 do
        for v = 0 to 19 do
          if u <> v then begin
            let o = Scheme.route inst ~src:u ~dst:v in
            if (not (Port_model.delivered o))
               || o.Port_model.length > (alpha *. Apsp.dist apsp u v) +. beta +. 1e-9
            then ok := false
          end
        done
      done;
      checkb (Printf.sprintf "eps=%g" eps) true !ok)
    [ 4.0; 0.05 ]

let test_eps_zero_rejected () =
  let g = Generators.path 6 in
  let vic = Vicinity.compute_all g 3 in
  checkb "lemma7 rejects eps=0" true
    (try
       ignore
         (Seq_routing.preprocess ~eps:0.0 g ~vicinities:vic
            ~parts:[| Array.init 6 Fun.id |]
            ~part_of:(Array.make 6 0));
       false
     with Invalid_argument _ -> true);
  checkb "lemma8 rejects negative eps" true
    (try
       ignore
         (Seq_routing2.preprocess ~eps:(-1.0) g ~vicinities:vic
            ~parts:[| Array.init 6 Fun.id |]
            ~part_of:(Array.make 6 0) ~dests:[| [| 5 |] |]);
       false
     with Invalid_argument _ -> true)

let test_lemma7_part_of_validation () =
  let g = Generators.path 6 in
  let vic = Vicinity.compute_all g 3 in
  checkb "inconsistent part_of rejected" true
    (try
       ignore
         (Seq_routing.preprocess g ~vicinities:vic
            ~parts:[| [| 0; 1; 2 |]; [| 3; 4; 5 |] |]
            ~part_of:(Array.make 6 0));
       false
     with Invalid_argument _ -> true)

(* --- lemma 8 input validation --- *)

let test_lemma8_part_mismatch () =
  let g = Generators.path 6 in
  let vic = Vicinity.compute_all g 3 in
  checkb "|parts| <> |dests| rejected" true
    (try
       ignore
         (Seq_routing2.preprocess g ~vicinities:vic
            ~parts:[| Array.init 6 Fun.id |]
            ~part_of:(Array.make 6 0)
            ~dests:[| [| 1 |]; [| 2 |] |]);
       false
     with Invalid_argument _ -> true)

(* --- evaluation helpers on empty input --- *)

let test_eval_empty () =
  let e = { Scheme.samples = [||]; failures = 0; header_words_peak = 0 } in
  checkf "max" 1.0 (Scheme.max_stretch e);
  checkf "avg" 1.0 (Scheme.avg_stretch e);
  checkf "p50" 1.0 (Scheme.percentile_stretch e 0.5);
  checkb "is empty" true (Scheme.eval_is_empty e);
  (* No data must not read as "guarantee holds". *)
  checkb "within needs a sample" false (Scheme.within e ~alpha:1.0 ~beta:0.0);
  let one = { e with Scheme.samples = [| (1.0, 1.0) |] } in
  checkb "one sample suffices" true (Scheme.within one ~alpha:1.0 ~beta:0.0);
  checkb "not empty" false (Scheme.eval_is_empty one);
  checkf "full delivery" 1.0 (Scheme.delivery_rate one);
  checkf "half delivery" 0.5
    (Scheme.delivery_rate { one with Scheme.failures = 1 })

let test_sample_pairs_small_n () =
  checki "n=2 has 2 ordered pairs" 2
    (List.length (Scheme.sample_pairs ~seed:1 ~n:2 ~count:100))

(* --- simulator max_hops override --- *)

let test_max_hops_override () =
  let g = Generators.path 12 in
  let o =
    Port_model.run g ~src:0 ~header:11
      ~step:(fun ~at dst ->
        if at = dst then Port_model.Deliver
        else
          match Graph.port_to g at (at + 1) with
          | Some p -> Port_model.Forward (p, dst)
          | None -> assert false)
      ~header_words:(fun _ -> 1)
      ~max_hops:5 ()
  in
  checkb "budget verdict" true
    (o.Port_model.verdict = Port_model.Hop_budget_exhausted);
  checki "stopped exactly at the budget" 5 o.Port_model.hops

(* --- two-vertex graphs through the techniques --- *)

let test_two_vertices_lemma7 () =
  let g = Generators.path 2 in
  let vic = Vicinity.compute_all g 2 in
  let t =
    Seq_routing.preprocess g ~vicinities:vic ~parts:[| [| 0; 1 |] |]
      ~part_of:[| 0; 0 |]
  in
  let o = Seq_routing.route (Seq_routing.compile t) ~src:0 ~dst:1 in
  checkb "delivered" true ((Port_model.delivered o) && o.Port_model.final = 1);
  checkf "one hop" 1.0 o.Port_model.length

let test_two_vertices_lemma8 () =
  let g = Generators.path 2 in
  let vic = Vicinity.compute_all g 2 in
  let t =
    Seq_routing2.preprocess g ~vicinities:vic ~parts:[| [| 0; 1 |] |]
      ~part_of:[| 0; 0 |] ~dests:[| [| 0; 1 |] |]
  in
  let o = Seq_routing2.route (Seq_routing2.compile t) ~src:0 ~dst:1 in
  checkb "delivered" true ((Port_model.delivered o) && o.Port_model.final = 1)

(* --- weighted graph where the heaviest edge is still a shortest path --- *)

let test_triangle_inequality_violating_weights () =
  (* Edge (0,2) costs more than the two-hop path: schemes must never use
     it when routing 0 -> 2 along shortest paths (length check catches). *)
  let g = Graph.of_edges [ (0, 1, 1.0); (1, 2, 1.0); (0, 2, 10.0) ] in
  let t = Scheme5eps.preprocess ~seed:207 g in
  let o = Scheme.route (Scheme5eps.instance t) ~src:0 ~dst:2 in
  checkb "uses the short route" true (o.Port_model.length <= 2.0 +. 1e-9)

(* --- parallel duplicate edge inputs --- *)

let test_duplicate_edges_through_schemes () =
  let g =
    Graph.of_edges
      [ (0, 1, 3.0); (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0); (3, 0, 1.0) ]
  in
  let t = Cr_baselines.Full_tables.preprocess g in
  let o = Cr_baselines.Full_tables.route t ~src:0 ~dst:1 in
  checkf "dedup kept light edge" 1.0 o.Port_model.length

let suite =
  [
    case "wrong destination exposed by final" test_wrong_label_detected;
    case "eps extremes (4.0, 0.05)" test_eps_extremes;
    case "eps <= 0 rejected" test_eps_zero_rejected;
    case "lemma7 part_of validation" test_lemma7_part_of_validation;
    case "lemma8 shape validation" test_lemma8_part_mismatch;
    case "eval helpers on empty input" test_eval_empty;
    case "pair sampling at n=2" test_sample_pairs_small_n;
    case "max_hops override" test_max_hops_override;
    case "two-vertex lemma 7" test_two_vertices_lemma7;
    case "two-vertex lemma 8" test_two_vertices_lemma8;
    case "metric-violating edge avoided" test_triangle_inequality_violating_weights;
    case "duplicate edges deduplicated end to end" test_duplicate_edges_through_schemes;
  ]
