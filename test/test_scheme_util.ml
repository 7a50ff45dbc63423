(* Scheme plumbing: parameter rounding, vicinity sizing, representatives,
   and the shared simulation wrapper. *)
open Util
open Cr_graph
open Cr_routing
open Cr_core

let test_root_exp () =
  checki "n^(1/2)" 10 (Scheme_util.root_exp 100 0.5);
  checki "n^(1/3)" 10 (Scheme_util.root_exp 1000 (1.0 /. 3.0));
  checki "rounds" 6 (Scheme_util.root_exp 216 (1.0 /. 3.0));
  checki "never below 1" 1 (Scheme_util.root_exp 2 0.1);
  checki "exponent 1" 64 (Scheme_util.root_exp 64 1.0)

let test_vicinity_size () =
  (* Clamped to n, at least 2, and monotone in q and factor. *)
  checki "clamps to n" 50 (Scheme_util.vicinity_size ~n:50 ~q:100 ~factor:5.0);
  checkb "at least 2" true (Scheme_util.vicinity_size ~n:100 ~q:1 ~factor:0.0001 >= 2);
  let a = Scheme_util.vicinity_size ~n:4096 ~q:4 ~factor:1.0 in
  let b = Scheme_util.vicinity_size ~n:4096 ~q:8 ~factor:1.0 in
  checkb "monotone in q" true (b >= a);
  let c = Scheme_util.vicinity_size ~n:4096 ~q:4 ~factor:2.0 in
  checkb "monotone in factor" true (c >= a)

let test_require_connected () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 1.0) ] in
  checkb "raises" true
    (try Scheme_util.require_connected g "x"; false
     with Invalid_argument _ -> true);
  Scheme_util.require_connected (Generators.path 4) "ok"

let test_color_reps_nearest () =
  let g = Generators.path 9 in
  let vic = Vicinity.compute_all g 9 in
  let coloring =
    (* Fixed coloring: alternate two colors; every B(u,9) = V sees both. *)
    let color = Array.init 9 (fun v -> v mod 2) in
    let classes = [| [| 0; 2; 4; 6; 8 |]; [| 1; 3; 5; 7 |] |] in
    { Coloring.colors = 2; color; classes }
  in
  let reps = Scheme_util.color_reps vic coloring in
  (* At vertex 4: nearest color-0 vertex is 4 itself; nearest color-1 is 3
     (ties broken toward the smaller id). *)
  checkb "self rep" true (reps.(4).(0) = (4, 0.0));
  checkb "neighbor rep" true (reps.(4).(1) = (3, 1.0))

let test_color_reps_missing_color () =
  let g = Generators.path 4 in
  let vic = Vicinity.compute_all g 2 in
  let coloring =
    { Coloring.colors = 2; color = [| 0; 0; 0; 1 |]; classes = [| [| 0; 1; 2 |]; [| 3 |] |] }
  in
  checkb "missing color raises" true
    (try ignore (Scheme_util.color_reps vic coloring); false
     with Invalid_argument _ -> true)

let test_run_scheme_bounds_hops () =
  let g = Generators.cycle 8 in
  (* A step function that never delivers: the wrapper must stop it. *)
  let o =
    Scheme_util.run_scheme ~faults:None ~record_path:true ~detect_loops:true g
      ~src:0 ~header:()
      ~step:(fun ~at:_ () -> Port_model.Forward (0, ()))
      ~header_words:(fun () -> 0)
  in
  checkb "not delivered" false (Port_model.delivered o);
  checkb "hops bounded" true (o.Port_model.hops <= (64 * 8) + 257)

let test_color_vicinities_roundtrip () =
  let g = Generators.torus 5 5 in
  let vic = Vicinity.compute_all g 12 in
  let c = Scheme_util.color_vicinities ~seed:3 g vic ~colors:3 in
  checki "colors" 3 c.Coloring.colors;
  let sets = Array.to_list (Array.map Vicinity.members vic) in
  checkb "verified" true (Coloring.verify c sets ~balance:4.0 = Ok ())

let suite =
  [
    case "root_exp rounding" test_root_exp;
    case "vicinity_size clamping/monotonicity" test_vicinity_size;
    case "require_connected" test_require_connected;
    case "color_reps picks nearest" test_color_reps_nearest;
    case "color_reps detects missing colors" test_color_reps_missing_color;
    case "run_scheme bounds runaway messages" test_run_scheme_bounds_hops;
    case "color_vicinities verified" test_color_vicinities_roundtrip;
  ]
