(** A bounded memo table for values built on demand by pool worker
    domains: the lazy Lemma 7/8 sequence stores and cluster-tree stores.

    The mutex guards only {!find} and {!add}; the caller builds a missing
    value between the two, outside the lock, so domains build misses in
    parallel. Values must be pure functions of their key: when two domains
    miss the same key, both build the same value and the second {!add} is
    skipped. The table keeps at most [cap] entries, evicting the oldest
    first, so its contents depend on the schedule but never change a value
    a caller computes. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** [create cap] is an empty table holding at most [cap] entries. *)

val find : ('k, 'v) t -> 'k -> 'v option

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** [add c k v] stores [v] under [k] unless [k] is already present, then
    evicts the oldest entry if the table exceeds its capacity. *)
