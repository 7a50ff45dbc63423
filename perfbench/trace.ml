(* Spans for the traced run.

   The benchmark records a span around each of its calls into a layer:
   name, start, end, parent, and a request id that the spans of one query
   share. The name's prefix up to the first '.' is the layer. At the same
   boundaries a span records counts: the [Gc.minor_words] delta and the
   deltas of the program's own [Telemetry] and substrate counters.
   Spans stay in memory and are written out as JSONL when the run ends.
   With tracing off, [span] is a plain call. *)

open Cr_routing

type span = {
  id : int;
  name : string;
  parent : int;
  req : int;
  start_ns : int;
  mutable stop_ns : int;
  mutable minor_words : float;
  mutable routes : int;
  mutable hops : int;
  mutable lookups : int;
  mutable substrate_misses : int;
}

let on = ref false
let recorded = ref []
let next_id = ref 0
let stack = ref []

let fresh ~name ~req ~start_ns =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  { id; name; parent; req; start_ns; stop_ns = start_ns; minor_words = 0.0;
    routes = 0; hops = 0; lookups = 0; substrate_misses = 0 }

let span name f =
  if not !on then f ()
  else begin
    let t0 = Telemetry.totals () in
    let w0 = Gc.minor_words () in
    let s = fresh ~name ~req:(-1) ~start_ns:(Clock.now_ns ()) in
    stack := s.id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop_ns <- Clock.now_ns ();
        stack := List.tl !stack;
        let t1 = Telemetry.totals () in
        s.minor_words <- Gc.minor_words () -. w0;
        s.routes <- t1.routes - t0.routes;
        s.hops <- t1.hops - t0.hops;
        s.lookups <- t1.table_lookups - t0.table_lookups;
        s.substrate_misses <- t1.substrate_misses - t0.substrate_misses;
        recorded := s :: !recorded)
      f
  end

(* A leaf span timed by the caller — the sampled per-route spans, which
   must not pay for counter snapshots. *)
let leaf ~req name ~start_ns ~stop_ns =
  if !on then begin
    let s = fresh ~name ~req ~start_ns in
    s.stop_ns <- stop_ns;
    recorded := s :: !recorded
  end

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time per layer, in seconds: each span's duration minus the part
   its children cover, summed by layer. *)
let self_times () =
  let spans = !recorded in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let c = Option.value ~default:0 (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (c + (s.stop_ns - s.start_ns))
      end)
    spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own =
        s.stop_ns - s.start_ns
        - Option.value ~default:0 (Hashtbl.find_opt child s.id)
      in
      let l = layer s.name in
      let c = Option.value ~default:0 (Hashtbl.find_opt by_layer l) in
      Hashtbl.replace by_layer l (c + own))
    spans;
  Hashtbl.fold (fun l ns acc -> (l, float_of_int ns *. 1e-9) :: acc) by_layer []
  |> List.sort compare

let write_jsonl path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"start_ns\":%d,\
             \"end_ns\":%d,\"minor_words\":%.0f,\"routes\":%d,\"hops\":%d,\
             \"lookups\":%d,\"substrate_misses\":%d}\n"
            s.id s.name s.parent s.req s.start_ns s.stop_ns s.minor_words
            s.routes s.hops s.lookups s.substrate_misses)
        (List.rev !recorded))
