(** Deterministic domain pool for the preprocessing hot paths.

    Every construction sweep in this repository — per-source shortest-path
    trees, truncated vicinity searches, restricted cluster searches — is
    embarrassingly parallel over source vertices. This module fans such a
    sweep out over OCaml 5 domains with {e chunked} index distribution:
    workers (the calling domain plus [domains - 1] spawned helpers) pull
    contiguous index chunks off a shared atomic counter and write each
    result into the slot of a pre-sized array.

    {b Determinism.} Which domain computes which index depends on
    scheduling, but each index is computed exactly once by a pure function
    of the index and written to its own slot, so the produced arrays are
    bit-identical to a serial run — nothing downstream can observe the
    schedule. Callers must not close over shared mutable state in [f]
    except per-index output slots; per-worker mutable scratch belongs in
    [local].

    {b Persistent helpers.} Helper domains are shared by every pool and
    outlive a call: they are spawned on demand, up to the widest width
    requested so far, and a call of width [d] hands its job to helpers
    [0 .. d - 2], works on it itself, and returns once every one of them
    has finished. After a job a helper spins for about a millisecond
    waiting for the next one, then exits; the next call spawns it again.
    Helpers never park — in OCaml 5 every minor collection stops all
    domains, idle ones included, so a parked helper would slow the serial
    code between calls. One call uses the helpers at a time: a call made
    while they are taken (from inside a body, or concurrently from another
    domain) runs inline on its calling domain, which changes no result.

    The default pool size comes from the [CR_DOMAINS] environment variable
    (clamped to [1 .. 64]; unset or invalid falls back to
    [Domain.recommended_domain_count ()]). With one domain no helper is
    used and the sweep runs inline. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains ()] is a pool of the given width, clamped to
    [1 .. 64]. Without [~domains], reads [CR_DOMAINS], falling back to
    [Domain.recommended_domain_count ()].
    @raise Invalid_argument if [domains < 1]. *)

val domains : t -> int
(** Worker count, including the calling domain. *)

val default : unit -> t
(** The process-wide pool used by preprocessing entry points when no
    explicit pool is passed. Created lazily from [CR_DOMAINS]. *)

val set_default_domains : int -> unit
(** Replace the default pool with one of the given width — a bench / test
    knob for comparing serial and parallel construction in one process. *)

val iter : t -> n:int -> (int -> unit) -> unit
(** [iter p ~n f] runs [f i] for every [i] in [0, n), fanned out over the
    pool. [f] must be safe to call concurrently for distinct indices. If
    any [f] raises, one such exception is re-raised after all workers have
    stopped, and the pool stays usable. *)

val iter_local : t -> n:int -> local:(unit -> 'w) -> ('w -> int -> unit) -> unit
(** [iter_local p ~n ~local f]: as {!iter}, but each worker first creates
    private scratch with [local ()] (e.g. a [Dijkstra.workspace]) and
    passes it to every [f] call it executes. A worker that finds no index
    left never calls [local]. *)

val map : t -> n:int -> (int -> 'a) -> 'a array
(** [map p ~n f] is [Array.init n f] computed in parallel; element [i] is
    [f i] regardless of scheduling. *)

val map_local : t -> n:int -> local:(unit -> 'w) -> ('w -> int -> 'a) -> 'a array
(** {!map} with per-worker scratch, as in {!iter_local}. *)
