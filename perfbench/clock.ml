(* Nanosecond monotonic clock and allocation-free sample storage.

   [Unix.gettimeofday] resolves 1 µs, against routes of a few µs, so every
   timing in the benchmark reads CLOCK_MONOTONIC through bechamel's
   unboxed, noalloc stub. Per-route samples go into preallocated int
   arrays, so the harness allocates nothing per route and
   [Gc.minor_words] deltas around a route loop are the program's own. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let secs_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* [time f] is [f ()] with its wall time in seconds. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, secs_since t0)

(* A fixed-capacity buffer of int samples (nanoseconds). Pushes past the
   capacity are dropped, so a phase can never allocate. *)
type samples = { data : int array; mutable len : int }

let samples cap = { data = Array.make (max 1 cap) 0; len = 0 }

let push s v =
  if s.len < Array.length s.data then begin
    Array.unsafe_set s.data s.len v;
    s.len <- s.len + 1
  end

let count s = s.len

(* Nearest-rank quantile of the recorded samples, [p] in [0, 1]. *)
let quantile_ns s p =
  if s.len = 0 then 0
  else begin
    let a = Array.sub s.data 0 s.len in
    Array.sort compare a;
    let k = int_of_float (ceil (p *. float_of_int s.len)) - 1 in
    a.(max 0 (min (s.len - 1) k))
  end

let max_ns s =
  let m = ref 0 in
  for i = 0 to s.len - 1 do
    if s.data.(i) > !m then m := s.data.(i)
  done;
  !m

(* Median of a non-empty float list (mean of the middle two when even). *)
let median = function
  | [] -> invalid_arg "Clock.median: no samples"
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
