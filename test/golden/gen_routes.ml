(* Prints the golden route signatures, one line per (scheme, graph, pair).
   Regenerate the committed file with
     dune exec test/golden/gen_routes.exe > test/golden/routes.txt
   only when a change is meant to alter routes. *)
let () = List.iter print_endline (Golden_routes.lines ())
