(* Metric records, correctness accounting and the run's outputs: a
   human-readable table, one JSON result file per run, and the single-line
   JSON summary that ends standard output. *)

(* A metric may be recorded once per world; its value is the median of the
   recorded values, so one world hit by a stall of the machine does not
   move it, and its sample count is their sum. *)
type metric = { name : string; unit : string; mutable values : float list; mutable samples : int }

let metrics : metric list ref = ref []

let find name = List.find_opt (fun m -> m.name = name) !metrics

let add ?(samples = 1) name unit value =
  if not (Float.is_finite value) then
    failwith (Printf.sprintf "metric %s is not finite" name);
  match find name with
  | Some m ->
    m.values <- value :: m.values;
    m.samples <- m.samples + samples
  | None -> metrics := { name; unit; values = [ value ]; samples } :: !metrics

let value m = Clock.median m.values

(* Operations attempted and failed. A failure is a route not delivered at
   its destination, a load error, a pair outside its scheme's proven
   (alpha, beta), or a broken identity between two paths that must agree. *)
let attempted = ref 0
let failed = ref 0

let check ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "GATE FAILED: %s\n%!" what
  end

(* [n] operations of which [bad] failed. *)
let tally ~n ~bad what =
  attempted := !attempted + n;
  if bad > 0 then begin
    failed := !failed + bad;
    Printf.eprintf "GATE FAILED: %s (%d of %d)\n%!" what bad n
  end

let json_value v = Printf.sprintf "%.17g" v

let write_result ~path ~header =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\"schema\":1";
      List.iter (fun (k, v) -> Printf.fprintf oc ",%S:%s" k v) header;
      Printf.fprintf oc ",\"attempted\":%d,\"failed\":%d,\"metrics\":[" !attempted
        !failed;
      List.iteri
        (fun i m ->
          Printf.fprintf oc "%s\n{\"name\":%S,\"unit\":%S,\"value\":%s,\"samples\":%d}"
            (if i = 0 then "" else ",")
            m.name m.unit (json_value (value m)) m.samples)
        (List.rev !metrics);
      Printf.fprintf oc "]}\n")

let print_table () =
  List.iter
    (fun m ->
      Printf.printf "  %-40s %16.6g %-8s (n=%d)\n" m.name (value m) m.unit m.samples)
    (List.rev !metrics)

(* The last line of standard output: exactly the [names] requested. *)
let print_summary names =
  let missing = List.filter (fun n -> find n = None) names in
  if missing <> [] then
    failwith ("metrics not measured: " ^ String.concat ", " missing);
  let fields =
    List.map
      (fun n ->
        let m = Option.get (find n) in
        Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" n (json_value (value m)) m.unit)
      names
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (!failed = 0) (max 1 !attempted) !failed (String.concat "," fields)
