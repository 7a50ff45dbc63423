(* Golden route signatures: a fixed zoo of (scheme, graph, pair) cases and
   the one-line signature of each routed outcome. [routes.txt] in this
   directory holds the signatures; [gen_routes.exe] rewrites it and the
   test suite compares against it, so any change to a routing decision
   shows up as a line diff. *)
open Cr_graph
open Cr_routing
open Cr_core

type case = {
  scheme : string;
  graph : string;
  inst : Scheme.instance;
  faults : Fault.plan option;
  pairs : (int * int) list;
}

let seed = 11
let eps = 0.5
let pairs_per_case = 64

(* Small-integer weights put many equal-length paths in the graph, so
   tie-breaking decisions show up in the routes. *)
let int_weights g =
  Graph.reweight g (fun u v _ -> float_of_int (1 + (((u * 7) + (v * 13)) mod 3)))

(* (name, graph, unweighted) *)
let zoo () =
  [
    ("gnp60", Generators.connect ~seed:1 (Generators.gnp ~seed:7 60 0.08), true);
    ("glp60-int", int_weights (Generators.glp ~seed:3 60), false);
    ( "glp60-f32",
      Graph.pack ~float32:true
        (Generators.with_random_weights ~seed:5 ~lo:0.5 ~hi:4.0
           (Generators.glp ~seed:9 60)),
      false );
  ]

let plan g =
  Fault.compile
    (Fault.spec ~seed:29 ~link_failure_rate:0.06 ~vertex_failure_rate:0.03
       ~drop_prob:0.01 ~corrupt_prob:0.01 ())
    g

let lazy_builds =
  [
    ( "rt-5eps",
      (fun g -> Scheme5eps.instance (Scheme5eps.preprocess ~mode:`Lazy ~eps ~seed g)),
      true );
    ( "rt-4km7-k3",
      (fun g ->
        Scheme4km7.instance (Scheme4km7.preprocess ~mode:`Lazy ~eps ~seed g ~k:3)),
      true );
    ( "rt-2eps1",
      (fun g ->
        Scheme2eps1.instance (Scheme2eps1.preprocess ~mode:`Lazy ~eps ~seed g)),
      false );
  ]

let pairs g =
  let n = Graph.n g in
  (0, 0) :: (n - 1, n - 1) :: Scheme.sample_pairs ~seed ~n ~count:pairs_per_case

let cases () =
  List.concat_map
    (fun (gname, g, unweighted) ->
      let pairs = pairs g in
      let case ?faults scheme inst = { scheme; graph = gname; inst; faults; pairs } in
      let catalog =
        List.filter_map
          (fun (e : Catalog.entry) ->
            if unweighted || e.Catalog.weighted_ok then
              Some (case e.Catalog.id (fst (e.Catalog.build ~seed ~eps g)))
            else None)
          Catalog.all
      in
      let lazies =
        List.filter_map
          (fun (id, build, weighted_ok) ->
            if unweighted || weighted_ok then Some (case (id ^ "/lazy") (build g))
            else None)
          lazy_builds
      in
      let faults = plan g in
      let resilient =
        List.map
          (fun id ->
            let e = Option.get (Catalog.find id) in
            case ~faults id (fst (e.Catalog.build ~seed ~eps g)))
          [ "tz-k2+res"; "rt-3eps+res" ]
      in
      catalog @ lazies @ resilient)
    (zoo ())

let verdict = function
  | Port_model.Delivered -> "delivered"
  | Dropped_at v -> Printf.sprintf "dropped@%d" v
  | Dead_end_at v -> Printf.sprintf "dead-end@%d" v
  | Link_down_at (v, p) -> Printf.sprintf "link-down@%d:%d" v p
  | Hop_budget_exhausted -> "hop-budget-exhausted"
  | Loop_detected v -> Printf.sprintf "loop@%d" v
  | Invalid_port (v, p) -> Printf.sprintf "invalid-port@%d:%d" v p

(* The path comes last so a path-less outcome's signature is a prefix of
   the recorded one. *)
let signature c ~src ~dst (o : Port_model.outcome) =
  Printf.sprintf "%s %s %d->%d %s final=%d len=%h hops=%d hdr=%d path=%s"
    c.scheme c.graph src dst (verdict o.Port_model.verdict) o.Port_model.final
    o.Port_model.length o.Port_model.hops o.Port_model.header_words_peak
    (String.concat "," (List.map string_of_int o.Port_model.path))

let route c ~src ~dst = Scheme.route_fast ?faults:c.faults c.inst ~src ~dst

let lines () =
  List.concat_map
    (fun c ->
      List.map (fun (src, dst) -> signature c ~src ~dst (route c ~src ~dst)) c.pairs)
    (cases ())
