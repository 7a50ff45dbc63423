open Util

let test_empty () =
  let h = Cr_graph.Heap.create 8 in
  checkb "empty" true (Cr_graph.Heap.is_empty h);
  checkb "pop none" true (Cr_graph.Heap.pop_min h = None)

let test_basic_order () =
  let h = Cr_graph.Heap.create 8 in
  Cr_graph.Heap.insert h 3 5.0;
  Cr_graph.Heap.insert h 1 2.0;
  Cr_graph.Heap.insert h 2 9.0;
  checki "size" 3 (Cr_graph.Heap.size h);
  checkb "min first" true (Cr_graph.Heap.pop_min h = Some (1, 2.0));
  checkb "then" true (Cr_graph.Heap.pop_min h = Some (3, 5.0));
  checkb "last" true (Cr_graph.Heap.pop_min h = Some (2, 9.0))

let test_tie_break_by_key () =
  let h = Cr_graph.Heap.create 8 in
  Cr_graph.Heap.insert h 5 1.0;
  Cr_graph.Heap.insert h 2 1.0;
  Cr_graph.Heap.insert h 7 1.0;
  checkb "smallest key first" true (Cr_graph.Heap.pop_min h = Some (2, 1.0));
  checkb "then 5" true (Cr_graph.Heap.pop_min h = Some (5, 1.0));
  checkb "then 7" true (Cr_graph.Heap.pop_min h = Some (7, 1.0))

let test_decrease () =
  let h = Cr_graph.Heap.create 8 in
  Cr_graph.Heap.insert h 0 10.0;
  Cr_graph.Heap.insert h 1 5.0;
  Cr_graph.Heap.decrease h 0 1.0;
  checkb "decreased wins" true (Cr_graph.Heap.pop_min h = Some (0, 1.0))

let test_decrease_raises_on_increase () =
  let h = Cr_graph.Heap.create 4 in
  Cr_graph.Heap.insert h 0 1.0;
  Alcotest.check_raises "increase rejected"
    (Invalid_argument "Heap.decrease: priority increase") (fun () ->
      Cr_graph.Heap.decrease h 0 2.0)

let test_duplicate_insert_raises () =
  let h = Cr_graph.Heap.create 4 in
  Cr_graph.Heap.insert h 0 1.0;
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Heap.insert: duplicate key") (fun () ->
      Cr_graph.Heap.insert h 0 2.0)

let test_insert_or_decrease () =
  let h = Cr_graph.Heap.create 4 in
  Cr_graph.Heap.insert_or_decrease h 0 5.0;
  Cr_graph.Heap.insert_or_decrease h 0 7.0;
  checkf "no increase" 5.0 (Cr_graph.Heap.priority h 0);
  Cr_graph.Heap.insert_or_decrease h 0 3.0;
  checkf "decrease applied" 3.0 (Cr_graph.Heap.priority h 0)

let prop_heapsort =
  qcheck ~count:200 "heap sorts like List.sort"
    QCheck2.Gen.(list_size (int_range 0 64) (float_range 0.0 100.0))
    (fun prios ->
      let n = List.length prios in
      let h = Cr_graph.Heap.create (max n 1) in
      List.iteri (fun k p -> Cr_graph.Heap.insert h k p) prios;
      let rec drain acc =
        match Cr_graph.Heap.pop_min h with
        | None -> List.rev acc
        | Some kp -> drain (kp :: acc)
      in
      let got = drain [] in
      let expected =
        List.mapi (fun k p -> (k, p)) prios
        |> List.sort (fun (k1, p1) (k2, p2) -> compare (p1, k1) (p2, k2))
      in
      got = expected)

let prop_random_decreases =
  qcheck ~count:100 "random decrease-key maintains order"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = 50 in
      let h = Cr_graph.Heap.create n in
      let prio = Array.make n infinity in
      for k = 0 to n - 1 do
        prio.(k) <- Random.State.float st 100.0;
        Cr_graph.Heap.insert h k prio.(k)
      done;
      for _ = 1 to 100 do
        let k = Random.State.int st n in
        if Cr_graph.Heap.mem h k then begin
          let p = Cr_graph.Heap.priority h k in
          let p' = p *. Random.State.float st 1.0 in
          Cr_graph.Heap.decrease h k p';
          prio.(k) <- p'
        end
      done;
      let rec drain last ok =
        match Cr_graph.Heap.pop_min h with
        | None -> ok
        | Some (k, p) -> drain p (ok && p >= last && p = prio.(k))
      in
      drain neg_infinity true)

(* Dense priority ties: priorities come from {0, 1, 2}, so almost every
   comparison falls through to the key. Random pushes (insert when absent,
   else insert_or_decrease) interleaved with pops must pop, through
   [pop_min_key], exactly the least (prio, key) pair of a plain reference
   map, then drain in sorted order. *)
let prop_ties_pop_in_order =
  qcheck ~count:300 "dense ties pop in sorted (prio, key) order"
    QCheck2.Gen.(
      list_size (int_range 0 200)
        (oneof
           [
             map2 (fun k p -> Some (k, float_of_int p)) (int_range 0 31) (int_range 0 2);
             return None;
           ]))
    (fun ops ->
      let h = Cr_graph.Heap.create 32 in
      let ref_prio = Hashtbl.create 32 in
      let ref_min () =
        Hashtbl.fold
          (fun k p acc ->
            match acc with
            | Some (p0, k0) when compare (p0, k0) (p, k) < 0 -> acc
            | _ -> Some (p, k))
          ref_prio None
      in
      let ok = ref true in
      let pop () =
        let got = Cr_graph.Heap.pop_min_key h in
        match ref_min () with
        | None -> if got <> -1 then ok := false
        | Some (_, k) ->
          if got <> k then ok := false;
          Hashtbl.remove ref_prio k
      in
      List.iter
        (function
          | Some (k, p) -> (
            match Hashtbl.find_opt ref_prio k with
            | None ->
              Cr_graph.Heap.insert h k p;
              Hashtbl.replace ref_prio k p
            | Some p0 ->
              Cr_graph.Heap.insert_or_decrease h k p;
              if p < p0 then Hashtbl.replace ref_prio k p)
          | None -> pop ())
        ops;
      while Hashtbl.length ref_prio > 0 do
        pop ()
      done;
      pop ();
      !ok && Cr_graph.Heap.is_empty h)

let suite =
  [
    case "empty heap" test_empty;
    case "basic extraction order" test_basic_order;
    case "priority ties break by key" test_tie_break_by_key;
    case "decrease-key" test_decrease;
    case "decrease rejects increases" test_decrease_raises_on_increase;
    case "insert rejects duplicates" test_duplicate_insert_raises;
    case "insert_or_decrease semantics" test_insert_or_decrease;
    prop_heapsort;
    prop_random_decreases;
    prop_ties_pop_in_order;
  ]
