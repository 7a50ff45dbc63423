(* Golden route signatures: every (scheme, graph, pair) case of
   [Golden_routes] must reproduce its committed line in
   [golden/routes.txt] — verdict, final vertex, path, length (as a hex
   float), hops and header peak. Regenerate the file with
   [test/golden/gen_routes.exe] only when a change is meant to alter
   routes. *)
open Cr_routing

let golden_file = "golden/routes.txt"

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* Routes every case through [route] and compares its signature (with
   [strip] applied to the golden line) line by line, naming the first
   divergence. *)
let compare_against_golden what route strip =
  let golden = Array.of_list (read_lines golden_file) in
  let i = ref 0 in
  List.iter
    (fun (c : Golden_routes.case) ->
      List.iter
        (fun (src, dst) ->
          if !i >= Array.length golden then
            Alcotest.failf "%s: %s has more cases than its %d lines" what
              golden_file (Array.length golden);
          let got = Golden_routes.signature c ~src ~dst (route c ~src ~dst) in
          let want = strip golden.(!i) in
          if got <> want then
            Alcotest.failf "%s: line %d differs\n  want: %s\n  got:  %s" what
              (!i + 1) want got;
          incr i)
        c.Golden_routes.pairs)
    (Golden_routes.cases ());
  Alcotest.(check int) (what ^ ": line count") (Array.length golden) !i

(* The signature's path is its last field, so a path-less outcome reads as
   the golden line cut after "path=". *)
let drop_path line =
  let k = String.length "path=" in
  let rec find j =
    if String.sub line j k = "path=" then String.sub line 0 (j + k)
    else find (j - 1)
  in
  find (String.length line - k)

let test_routes () =
  compare_against_golden "Scheme.route" Golden_routes.route Fun.id

let test_pathless () =
  compare_against_golden "record_path:false, detect_loops:false"
    (fun c ~src ~dst ->
      Scheme.route ?faults:c.Golden_routes.faults ~record_path:false
        ~detect_loops:false c.Golden_routes.inst ~src ~dst)
    drop_path

let suite =
  [
    Util.case "golden routes" test_routes;
    Util.case "golden routes: path recording and loop detection off"
      test_pathless;
  ]
