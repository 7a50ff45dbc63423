open Util
open Cr_graph
open Cr_routing

let route_on_tree t g ~src ~dst =
  let c = Tree_routing.compile t in
  let lbl = Tree_routing.label t dst in
  Port_model.run g ~src ~header:lbl
    ~step:(fun ~at l ->
      match Tree_routing.step c ~at l with
      | `Deliver -> Port_model.Deliver
      | `Forward p -> Port_model.Forward (p, l))
    ~header_words:(fun l -> Tree_routing.label_words l)
    ()

let check_all_pairs g t =
  let ms = Tree_routing.members t in
  let ok = ref true in
  Array.iter
    (fun u ->
      Array.iter
        (fun v ->
          let o = route_on_tree t g ~src:u ~dst:v in
          if not ((Port_model.delivered o) && o.Port_model.final = v) then
            ok := false
          else if
            abs_float (o.Port_model.length -. Tree_routing.tree_dist t u v)
            > 1e-9
          then ok := false)
        ms)
    ms;
  !ok

(* Reference next hop on a Dijkstra tree, read straight off its parent
   array: the child on the path when [at] is an ancestor of [dst], else
   the parent. *)
let oracle_step g (tr : Dijkstra.tree) ~at ~dst =
  let parent v = tr.Dijkstra.parent.(v) in
  let rec child_toward v =
    if v = tr.Dijkstra.source then None
    else if parent v = at then Some v
    else child_toward (parent v)
  in
  if at = dst then `Deliver
  else
    let next = match child_toward dst with Some c -> c | None -> parent at in
    `Forward (Option.get (Graph.port_to g at next))

let test_path_tree () =
  let g = Generators.path 8 in
  let t = Tree_routing.of_tree g (Dijkstra.spt g 0) in
  checkb "all pairs route on tree path" true (check_all_pairs g t)

let test_star_tree () =
  let g = Generators.star 9 in
  let t = Tree_routing.of_tree g (Dijkstra.spt g 3) in
  checkb "all pairs" true (check_all_pairs g t)

let test_subtree_of_graph () =
  (* Tree routing over a cluster (strict subset of the graph). *)
  let g = Generators.grid 4 4 in
  let members = [| 5; 1; 4; 6; 9 |] in
  let parent = function 1 -> 5 | 4 -> 5 | 6 -> 5 | 9 -> 5 | _ -> -1 in
  let t = Tree_routing.build g ~root:5 ~members ~parent in
  checkb "all pairs within cluster" true (check_all_pairs g t);
  checkb "outsider not a member" false (Tree_routing.mem t 15)

let test_label_sizes_logarithmic () =
  (* A balanced binary tree: light depth <= log2 n, so labels stay small. *)
  let g = Generators.balanced_tree ~branching:2 ~depth:7 in
  let t = Tree_routing.of_tree g (Dijkstra.spt g 0) in
  let worst =
    Array.fold_left
      (fun acc v -> max acc (Tree_routing.label_words (Tree_routing.label t v)))
      0 (Tree_routing.members t)
  in
  (* 1 + 4 * light-depth; light depth <= 7 here. *)
  checkb "label words bounded" true (worst <= 1 + (4 * 7))

let test_table_constant () =
  let g = Generators.star 50 in
  let t = Tree_routing.of_tree g (Dijkstra.spt g 0) in
  checki "heavy-light table is O(1)" 7 (Tree_routing.table_words t 0)

let test_depth () =
  let g = Generators.path 6 in
  let t = Tree_routing.of_tree g (Dijkstra.spt g 0) in
  checki "depth of far end" 5 (Tree_routing.depth t 5);
  checki "depth of root" 0 (Tree_routing.depth t 0)

let test_tree_dist_weighted () =
  let g = Graph.of_edges [ (0, 1, 2.5); (1, 2, 1.5); (1, 3, 4.0) ] in
  let t = Tree_routing.of_tree g (Dijkstra.spt g 0) in
  checkf "lca distance" 5.5 (Tree_routing.tree_dist t 2 3);
  checkf "root to leaf" 6.5 (Tree_routing.tree_dist t 0 3)

let test_rejects_bad_trees () =
  let g = Generators.path 4 in
  checkb "root missing" true
    (try
       ignore (Tree_routing.build g ~root:9 ~members:[| 0; 1 |] ~parent:(fun _ -> 0));
       false
     with Invalid_argument _ -> true);
  checkb "non-edge parent" true
    (try
       ignore (Tree_routing.build g ~root:0 ~members:[| 0; 2 |] ~parent:(fun _ -> 0));
       false
     with Invalid_argument _ -> true)

let prop_random_spt_all_pairs =
  qcheck ~count:30 "tree routing exact on random SPTs"
    arb_weighted_connected_graph (fun g ->
      let t = Tree_routing.of_tree g (Dijkstra.spt g 0) in
      check_all_pairs g t)

let prop_step_matches_parent_oracle =
  qcheck ~count:30 "heavy-light step = parent-array next hop"
    arb_weighted_connected_graph (fun g ->
      let tr = Dijkstra.spt g 0 in
      let t = Tree_routing.of_tree g tr in
      let c = Tree_routing.compile t in
      let ms = Tree_routing.members t in
      Array.for_all
        (fun at ->
          Array.for_all
            (fun dst ->
              Tree_routing.step c ~at (Tree_routing.label t dst)
              = oracle_step g tr ~at ~dst)
            ms)
        ms)

let prop_labels_light_depth =
  qcheck ~count:30 "label entries = light edges <= log2 n"
    arb_connected_graph (fun g ->
      let t = Tree_routing.of_tree g (Dijkstra.spt g 0) in
      let n = Array.length (Tree_routing.members t) in
      let bound = 1 + (4 * (1 + int_of_float (log (float_of_int n) /. log 2.0))) in
      Array.for_all
        (fun v -> Tree_routing.label_words (Tree_routing.label t v) <= bound)
        (Tree_routing.members t))

let suite =
  [
    case "path tree" test_path_tree;
    case "star tree" test_star_tree;
    case "cluster subtree" test_subtree_of_graph;
    case "balanced-tree labels stay small" test_label_sizes_logarithmic;
    case "constant local tables" test_table_constant;
    case "depths" test_depth;
    case "weighted tree distance" test_tree_dist_weighted;
    case "malformed trees rejected" test_rejects_bad_trees;
    prop_random_spt_all_pairs;
    prop_step_matches_parent_oracle;
    prop_labels_light_depth;
  ]
