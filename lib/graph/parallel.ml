type t = { domains : int }

let max_domains = 64

let env_domains () =
  match Sys.getenv_opt "CR_DOMAINS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some d when d >= 1 -> Some (min d max_domains)
    | _ -> None)

let create ?domains () =
  let d =
    match domains with
    | Some d ->
      if d < 1 then invalid_arg "Parallel.create: need at least one domain";
      d
    | None -> (
      match env_domains () with
      | Some d -> d
      | None -> Domain.recommended_domain_count ())
  in
  { domains = max 1 (min d max_domains) }

let domains p = p.domains

(* The shared default pool. Read-mostly; [set_default_domains] is a bench /
   test knob, not a concurrency feature. *)
let default_pool : t option Atomic.t = Atomic.make None

let default () =
  match Atomic.get default_pool with
  | Some p -> p
  | None ->
    let p = create () in
    Atomic.set default_pool (Some p);
    p

let set_default_domains d = Atomic.set default_pool (Some (create ~domains:d ()))

(* --- persistent helpers ---------------------------------------------------

   Helper domains outlive a call: a call publishes one job, the helpers it
   needs pick it up, and after it they spin on [current] for [linger]
   seconds before exiting, so back-to-back calls reuse them instead of
   paying a [Domain.spawn] / [Domain.join] each (~140 us on two cores).
   They do not park: every minor GC stops all domains, idle ones too, so a
   parked helper would tax the serial code between calls. One call runs at a
   time ([busy]); a call that finds the helpers taken runs inline. *)

type job = {
  helpers : int;  (** helpers [0 .. helpers - 1] take part *)
  work : unit -> unit;  (** pulls chunks until the range is exhausted; never raises *)
  pending : int Atomic.t;  (** participating helpers not yet finished *)
}

let linger = 1e-3

(* The caller spins this long on [pending] before blocking on [finished]. *)
let wait_spin = 5e-5

let idle = { helpers = 0; work = ignore; pending = Atomic.make 0 }

let busy = Atomic.make false

(* [lock] guards [alive] and the publication of [current]: a helper only
   exits after re-reading [current] under it, so a job published under it
   is either seen by the helper or finds it dead and respawns it. *)
let lock = Mutex.create ()

let alive = Array.make (max_domains - 1) false

let current = Atomic.make idle

let finished = Condition.create ()

let finish job =
  if Atomic.fetch_and_add job.pending (-1) = 1 then
    Mutex.protect lock (fun () -> Condition.broadcast finished)

let rec helper i last =
  let deadline = Unix.gettimeofday () +. linger in
  let rec next () =
    let j = Atomic.get current in
    if j != last then Some j
    else if Atomic.get last.pending > 0 then begin
      (* A straggler still owes [last]: leave the core to it, in case
         there are more domains than cores. *)
      Unix.sleepf 1e-5;
      next ()
    end
    else if Unix.gettimeofday () < deadline then begin
      Domain.cpu_relax ();
      next ()
    end
    else
      Mutex.protect lock (fun () ->
          let j = Atomic.get current in
          if j != last then Some j
          else begin
            alive.(i) <- false;
            None
          end)
  in
  match next () with
  | None -> ()
  | Some j ->
    if i < j.helpers then begin
      j.work ();
      finish j
    end;
    helper i j

(* Makes helpers [0 .. want - 1] alive and publishes [work] to as many of
   them as could be had (a failed spawn caps the width). *)
let publish ~want work =
  Mutex.protect lock (fun () ->
      let last = Atomic.get current in
      let rec ensure i =
        if i >= want then i
        else if alive.(i) then ensure (i + 1)
        else
          match Domain.spawn (fun () -> helper i last) with
          | _ ->
            alive.(i) <- true;
            ensure (i + 1)
          | exception _ -> i
      in
      let helpers = ensure 0 in
      let job = { helpers; work; pending = Atomic.make helpers } in
      Atomic.set current job;
      job)

let await job =
  let give_up = Unix.gettimeofday () +. wait_spin in
  while Atomic.get job.pending > 0 && Unix.gettimeofday () < give_up do
    Domain.cpu_relax ()
  done;
  if Atomic.get job.pending > 0 then
    Mutex.protect lock (fun () ->
        while Atomic.get job.pending > 0 do
          Condition.wait finished lock
        done)

(* Chunked fan-out over [0, n): helper domains plus the calling domain pull
   fixed-size index chunks off a shared counter until the range is
   exhausted. Which domain runs which chunk is scheduling-dependent, but
   every index is processed exactly once and all visible output goes
   through [f] writing to per-index slots, so results never depend on the
   schedule. A worker builds its [local] on its first chunk, so a helper
   that arrives after the range is gone costs nothing. *)
let iter_local pool ~n ~local f =
  if n > 0 then begin
    let d = min pool.domains n in
    if d <= 1 || not (Atomic.compare_and_set busy false true) then begin
      let l = local () in
      for i = 0 to n - 1 do
        f l i
      done
    end
    else begin
      let chunk = max 1 (1 + ((n - 1) / (8 * d))) in
      let next = Atomic.make 0 in
      let failure = Atomic.make None in
      let work () =
        try
          let lo = ref (Atomic.fetch_and_add next chunk) in
          if !lo < n then begin
            let l = local () in
            while !lo < n do
              for i = !lo to min n (!lo + chunk) - 1 do
                f l i
              done;
              lo := Atomic.fetch_and_add next chunk
            done
          end
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set failure None (Some (e, bt)))
      in
      let job = publish ~want:(d - 1) work in
      work ();
      await job;
      Atomic.set busy false;
      match Atomic.get failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

let iter pool ~n f = iter_local pool ~n ~local:(fun () -> ()) (fun () i -> f i)

let map_local pool ~n ~local f =
  if n <= 0 then [||]
  else begin
    let out = Array.make n None in
    iter_local pool ~n ~local (fun l i -> out.(i) <- Some (f l i));
    Array.map (function Some x -> x | None -> assert false) out
  end

let map pool ~n f = map_local pool ~n ~local:(fun () -> ()) (fun () i -> f i)
