(* The Section 4 schemes: (3+eps), Theorem 10 (2+eps,1), Theorem 11 (5+eps). *)
open Util
open Cr_graph
open Cr_routing
open Cr_core

(* Route every ordered pair of a graph through an instance and verify
   delivery, path validity, and the proven (alpha, beta) bound. *)
let check_scheme g (inst : Scheme.instance) (alpha, beta) =
  let apsp = Apsp.compute g in
  let n = Graph.n g in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then begin
        let o = Scheme.route inst ~src:u ~dst:v in
        if not ((Port_model.delivered o) && o.Port_model.final = v) then ok := false
        else begin
          (match Apsp.check_path apsp g o.Port_model.path with
          | Some len when abs_float (len -. o.Port_model.length) < 1e-6 -> ()
          | _ -> ok := false);
          let d = Apsp.dist apsp u v in
          if o.Port_model.length > (alpha *. d) +. beta +. 1e-9 then ok := false
        end
      end
    done
  done;
  !ok

let eps = 0.5

(* --- (3 + eps) warm-up --- *)

let test_3eps_zoo () =
  List.iter
    (fun (name, g) ->
      let t = Scheme3eps.preprocess ~eps ~seed:101 g in
      checkb name true (check_scheme g (Scheme3eps.instance t) (Scheme3eps.stretch_bound t)))
    (graph_zoo ())

let test_3eps_weighted () =
  List.iter
    (fun (name, g) ->
      let t = Scheme3eps.preprocess ~eps ~seed:103 g in
      checkb name true (check_scheme g (Scheme3eps.instance t) (Scheme3eps.stretch_bound t)))
    (weighted_zoo ())

let test_3eps_self_route () =
  let g = Generators.grid 4 4 in
  let t = Scheme3eps.preprocess ~eps ~seed:105 g in
  let o = Scheme.route (Scheme3eps.instance t) ~src:3 ~dst:3 in
  checkb "self delivered" true ((Port_model.delivered o) && o.Port_model.hops = 0)

let prop_3eps_random =
  qcheck ~count:12 "(3+eps) on random graphs"
    QCheck2.Gen.(
      let* g = arb_weighted_connected_graph in
      let* seed = int_range 0 500 in
      return (g, seed))
    (fun (g, seed) ->
      let t = Scheme3eps.preprocess ~eps ~seed g in
      check_scheme g (Scheme3eps.instance t) (Scheme3eps.stretch_bound t))

(* --- Theorem 10: (2+eps, 1), unweighted --- *)

let test_2eps1_zoo () =
  List.iter
    (fun (name, g) ->
      let t = Scheme2eps1.preprocess ~eps ~seed:107 g in
      checkb name true (check_scheme g (Scheme2eps1.instance t) (Scheme2eps1.stretch_bound t)))
    (graph_zoo ())

let test_2eps1_rejects_weighted () =
  let g = Generators.with_random_weights ~seed:1 ~lo:0.5 ~hi:2.0 (Generators.grid 3 3) in
  checkb "weighted rejected" true
    (try ignore (Scheme2eps1.preprocess ~seed:1 g); false
     with Invalid_argument _ -> true)

let test_2eps1_tight_eps () =
  let g = Generators.connect ~seed:5 (Generators.gnp ~seed:109 60 0.08) in
  let t = Scheme2eps1.preprocess ~eps:0.25 ~seed:111 g in
  checkb "eps=0.25" true
    (check_scheme g (Scheme2eps1.instance t) (Scheme2eps1.stretch_bound t))

let prop_2eps1_random =
  qcheck ~count:12 "Theorem 10 on random unweighted graphs"
    QCheck2.Gen.(
      let* g = arb_connected_graph in
      let* seed = int_range 0 500 in
      return (g, seed))
    (fun (g, seed) ->
      let t = Scheme2eps1.preprocess ~eps ~seed g in
      check_scheme g (Scheme2eps1.instance t) (Scheme2eps1.stretch_bound t))

(* --- Theorem 11: (5+eps), weighted --- *)

let test_5eps_zoo () =
  List.iter
    (fun (name, g) ->
      let t = Scheme5eps.preprocess ~eps ~seed:113 g in
      checkb name true (check_scheme g (Scheme5eps.instance t) (Scheme5eps.stretch_bound t)))
    (graph_zoo ())

let test_5eps_weighted_zoo () =
  List.iter
    (fun (name, g) ->
      let t = Scheme5eps.preprocess ~eps ~seed:115 g in
      checkb name true (check_scheme g (Scheme5eps.instance t) (Scheme5eps.stretch_bound t)))
    (weighted_zoo ())

let test_5eps_wide_weights () =
  let g =
    Generators.with_random_weights ~seed:117 ~lo:0.05 ~hi:20.0
      (Generators.connect ~seed:7 (Generators.gnp ~seed:119 50 0.1))
  in
  let t = Scheme5eps.preprocess ~eps ~seed:121 g in
  checkb "wide weights" true
    (check_scheme g (Scheme5eps.instance t) (Scheme5eps.stretch_bound t))

let prop_5eps_random =
  qcheck ~count:12 "Theorem 11 on random weighted graphs"
    QCheck2.Gen.(
      let* g = arb_weighted_connected_graph in
      let* seed = int_range 0 500 in
      return (g, seed))
    (fun (g, seed) ->
      let t = Scheme5eps.preprocess ~eps ~seed g in
      check_scheme g (Scheme5eps.instance t) (Scheme5eps.stretch_bound t))

(* --- Space sanity: the three schemes should order as the theory says on a
   moderately sized graph: (2+eps,1) tables > (3+eps) tables > (5+eps). --- *)

let test_2eps1_global_tree_regime () =
  (* Force the Global_tree branch: with A = V every destination's center is
     itself (d(v, p_A(v)) = 0 <= anything), clusters and witnesses vanish,
     and all long routes must ride the global trees — still exact. *)
  let g = Generators.connect ~seed:4 (Generators.gnp ~seed:127 40 0.1) in
  let t =
    Scheme2eps1.preprocess ~eps ~seed:129 ~vicinity_factor:0.4
      ~center_target:(Graph.n g) g
  in
  checki "A = V" (Graph.n g) (Array.length (Scheme2eps1.centers t));
  let inst = Scheme2eps1.instance t in
  let apsp = Apsp.compute g in
  let ok = ref true in
  for u = 0 to 39 do
    for v = 0 to 39 do
      if u <> v then begin
        let o = Scheme.route inst ~src:u ~dst:v in
        (* T(p_A(v)) = SPT of v itself: routing is exact. *)
        if (not (Port_model.delivered o))
           || abs_float (o.Port_model.length -. Apsp.dist apsp u v) > 1e-9
        then ok := false
      end
    done
  done;
  checkb "global-tree routes exact" true !ok

let test_5eps_sparse_centers_regime () =
  (* The other extreme: very few centers, so Seek_rep/Lemma8/To_z carry
     almost every route. *)
  let g =
    Generators.with_random_weights ~seed:5 ~lo:1.0 ~hi:3.0
      (Generators.torus 6 6)
  in
  let t = Scheme5eps.preprocess ~eps ~seed:131 ~center_target:3 g in
  let inst = Scheme5eps.instance t in
  let alpha, beta = Scheme5eps.stretch_bound t in
  let apsp = Apsp.compute g in
  let ok = ref true in
  for u = 0 to 35 do
    for v = 0 to 35 do
      if u <> v then begin
        let o = Scheme.route inst ~src:u ~dst:v in
        if (not (Port_model.delivered o))
           || o.Port_model.length > (alpha *. Apsp.dist apsp u v) +. beta +. 1e-9
        then ok := false
      end
    done
  done;
  checkb "bounded under sparse centers" true !ok

let test_space_breakdowns_sum () =
  let g = Generators.connect ~seed:9 (Generators.gnp ~seed:131 80 0.07) in
  let t10 = Scheme2eps1.preprocess ~eps ~seed:133 g in
  let sum10 =
    List.fold_left (fun a (_, w) -> a + w) 0 (Scheme2eps1.space_breakdown t10)
  in
  let total10 =
    Array.fold_left ( + ) 0 (Scheme2eps1.instance t10).Scheme.table_words
  in
  checki "thm10 breakdown sums to the tables" total10 sum10;
  let gw = Generators.with_random_weights ~seed:1 ~lo:0.5 ~hi:3.0 g in
  let t11 = Scheme5eps.preprocess ~eps ~seed:133 gw in
  let sum11 =
    List.fold_left (fun a (_, w) -> a + w) 0 (Scheme5eps.space_breakdown t11)
  in
  let total11 =
    Array.fold_left ( + ) 0 (Scheme5eps.instance t11).Scheme.table_words
  in
  checki "thm11 breakdown sums to the tables" total11 sum11

let test_space_ordering () =
  let g = Generators.connect ~seed:11 (Generators.gnp ~seed:123 220 0.03) in
  let s3 = Scheme3eps.instance (Scheme3eps.preprocess ~eps ~seed:1 g) in
  let s21 = Scheme2eps1.instance (Scheme2eps1.preprocess ~eps ~seed:1 g) in
  let s5 = Scheme5eps.instance (Scheme5eps.preprocess ~eps ~seed:1 g) in
  let avg = Scheme.avg_table_words in
  checkb "n^(2/3) >= n^(1/2) tables" true (avg s21 > avg s3);
  checkb "n^(1/2) >= n^(1/3) tables" true (avg s3 > avg s5)

let suite =
  [
    case "(3+eps) unweighted zoo" test_3eps_zoo;
    case "(3+eps) weighted zoo" test_3eps_weighted;
    case "(3+eps) self route" test_3eps_self_route;
    prop_3eps_random;
    case "Thm10 unweighted zoo" test_2eps1_zoo;
    case "Thm10 rejects weighted graphs" test_2eps1_rejects_weighted;
    case "Thm10 with eps=0.25" test_2eps1_tight_eps;
    prop_2eps1_random;
    case "Thm11 unweighted zoo" test_5eps_zoo;
    case "Thm11 weighted zoo" test_5eps_weighted_zoo;
    case "Thm11 wide weight range" test_5eps_wide_weights;
    prop_5eps_random;
    case "table sizes order by exponent" test_space_ordering;
    case "space breakdowns sum to totals" test_space_breakdowns_sum;
    case "Thm10 global-tree regime (A = V)" test_2eps1_global_tree_regime;
    case "Thm11 sparse-center regime" test_5eps_sparse_centers_regime;
  ]
