open Cr_graph

(** Open-loop traffic engine: the workload side of the long-running query
    server ([cr_cli serve]).

    A {!t} describes a synthetic query population the way measurement
    studies describe real ones (cf. Krioukov et al., {e Compact Routing on
    Internet-Like Graphs}): source and destination popularity follow a
    Zipf law with configurable exponent ([zipf = 0] is uniform), and
    queries arrive {e open-loop} — on a schedule fixed in advance at a
    target rate, regardless of how fast the server drains them, so an
    overloaded server accumulates lag instead of silently slowing the
    offered load.

    {b Determinism.} Everything is a pure function of the seed: vertex
    popularity ranks come from two seed-derived permutations (source and
    destination independently, so hot sources are not hot destinations),
    and the k-th query's endpoints and arrival time are derived by
    SplitMix-style hashing of [(seed, k)] — no sequential RNG state. The
    same seed always produces the same schedule, and query [k] can be
    recomputed without generating the first [k - 1]. *)

type t

val create : ?zipf:float -> ?rate:float -> seed:int -> n:int -> unit -> t
(** [create ~seed ~n ()] is a traffic spec over vertices [[0, n)].
    [zipf] (default [1.0]) is the popularity exponent: rank [r] is drawn
    with probability proportional to [(r + 1) ** -zipf]. [rate] (default
    [infinity]) is the target arrival rate in queries per second;
    [infinity] means "no schedule" — every arrival is due immediately.
    @raise Invalid_argument if [n < 2], [zipf < 0] or [rate <= 0]. *)

val n : t -> int

val seed : t -> int

val zipf : t -> float

val rate : t -> float

val pair : t -> int -> int * int
(** [pair t k] is the k-th query's (source, destination): both endpoints
    Zipf-distributed over their own popularity permutation, source <>
    destination, and a pure function of [(seed t, k)]. *)

val arrival : t -> int -> float
(** [arrival t k] — seconds after stream start at which query [k] is due.
    Nondecreasing in [k]; query [k] lands in [[k/rate, (k+1)/rate)] with a
    seed-derived jitter, so the long-run offered rate is exactly [rate].
    [0.0] for every [k] when [rate] is [infinity]. *)

val pairs : t -> count:int -> (int * int) list
(** The first [count] query pairs, in arrival order. *)

val rank_of_source : t -> int -> int
(** [rank_of_source t v] is vertex [v]'s popularity rank as a {e source}
    (0 = hottest) — the inverse of the source permutation, used by the
    rank-frequency tests. *)

(** {1 Fault churn} *)

type churn_event = { at_query : int; plan : Fault.plan option }
(** From query index [at_query] (inclusive) on, route under [plan]
    ([None] = healthy network) — until the next event. *)

val churn_cycle :
  Graph.t ->
  seed:int ->
  every:int ->
  budget:int ->
  link_rate:float ->
  vertex_rate:float ->
  churn_event list
(** A fail/heal cycle for a [budget]-query run: at queries [every],
    [2 * every], ... the network alternates between a freshly compiled
    fault plan (rotating seeds, so each outage fails different elements)
    and full health. Empty when [every <= 0] or [every >= budget]. *)

(** {1 Topology churn} *)

type topo_event = {
  at_query : int;
  ops_of : Graph.t -> Graph.delta_op list;
      (** the delta batch, generated against whatever graph is current
          when the event fires — with several events in flight each batch
          must be valid against the previous repair's output, not the
          original graph *)
}
(** At query index [at_query] the topology itself changes: the serve loop
    asks the repairer for a repaired world and hot-swaps it in. *)

val topo_cycle : seed:int -> every:int -> budget:int -> ops:int -> topo_event list
(** Topology churn for a [budget]-query run: at queries [every],
    [2 * every], ... apply a {!Delta.random} batch of [ops] edge changes
    (rotating seeds). Empty when [every <= 0], [ops <= 0] or
    [every >= budget]. *)

type swap = {
  sw_graph : Graph.t;
  sw_instances : Scheme.instance list;
      (** repaired instances, same order/length as the served ones *)
  sw_apsp : Apsp.t;  (** oracle for the new graph *)
  sw_wall : float;  (** seconds the repair proper took (excl. the oracle) *)
  sw_full_rebuild : bool;  (** whether the repair fell back to full rebuild *)
  sw_reused : int;  (** substrate structures carried across the delta *)
  sw_dropped : int;
}
(** What a repairer returns. The serve loop installs all fields between
    two chunks — no query ever observes a half-swapped world. *)

(** {1 The serve loop} *)

type segment = {
  plan : Fault.plan option;  (** fault plan active during the segment *)
  pairs : (int * int) list;  (** this instance's queries, arrival order *)
  eval : Scheme.eval;
      (** bit-identical to [Scheme.evaluate_batch ?faults:plan]
          over [pairs] — the serve loop routes through the same batch
          engine in chunks and concatenates (see {!Scheme.concat_evals}),
          so nothing can diverge; [test_traffic.ml] pins it anyway. *)
}

type served = {
  instance : Scheme.instance;
  segments : segment list;  (** chronological; a new one per churn event *)
}

type epoch = {
  index : int;  (** 0 for the pre-churn world *)
  started_at : int;  (** first query index served in this epoch *)
  ops : Graph.delta_op list;  (** the delta that opened it; [[]] for epoch 0 *)
  repair_wall : float;  (** the repairer's [sw_wall]; [0.] for epoch 0 *)
  blackout : float;
      (** wall seconds the serve loop was blocked inside the repairer
          (includes oracle recomputation and other measurement overhead) *)
  full_rebuild : bool;
  reused : int;  (** substrate structures carried across the delta *)
  dropped : int;
  stale_queries : int;
      (** queries answered on the {e pre-swap} tables while this epoch's
          repair ran — the staleness window *)
  stale_eval : Scheme.eval option;
      (** their aggregate evaluation: old instances wrapped in
          {!Resilient}, the delta's removed links failed, measured against
          the old oracle — the delivery-during-repair figure *)
  graph : Graph.t;  (** this epoch's graph *)
  apsp : Apsp.t;  (** and its oracle, for post-hoc identity checks *)
  served : served list;  (** per-instance segments of this epoch *)
}
(** One interval of topological stability. Without topology churn the run
    is a single epoch 0. *)

type report = {
  served : served list;
      (** per-epoch [served] lists concatenated chronologically — without
          topology churn, exactly one entry per instance, in the
          [instances] argument's order *)
  epochs : epoch list;  (** chronological; singleton without topo churn *)
  routed : int;  (** queries dispatched (= budget) *)
  wall : float;  (** wall seconds for the whole loop, pacing included *)
  rps : float;  (** sustained routed queries per second, [routed / wall] *)
  verdicts : (string * int) list;
      (** per-verdict route counts over every routed query
          ({!Port_model.verdict_classes} order; a query delivered at the
          wrong vertex counts as ["delivered"] here but fails its eval) *)
  max_lag : float;
      (** worst observed lateness (seconds) behind the arrival schedule —
          [0.0] when unpaced or never behind. An open-loop server that
          cannot keep up shows it here, not in a reduced [rps]. *)
}

val serve :
  ?pool:Pool.t ->
  ?churn:churn_event list ->
  ?topo:topo_event list ->
  ?repairer:(Graph.t -> Graph.delta_op list -> swap) ->
  ?chunk:int ->
  ?pace:bool ->
  ?on_window:(routed:int -> elapsed:float -> unit) ->
  t ->
  budget:int ->
  instances:Scheme.instance list ->
  apsp:Apsp.t ->
  report
(** [serve t ~budget ~instances ~apsp] drives [budget] queries from the
    schedule through the instances (all over the same graph; [apsp] is
    that graph's oracle), dispatching query [k] to instance
    [k mod length instances] — a round-robin multi-instance server. Queries
    are drained in windows of at most [chunk] (default 256) per instance
    through {!Scheme.evaluate_batch} on [pool], so routing fans out over
    the domain pool while results stay bit-identical to a serial run.

    With [pace] (default [true]) and a finite rate, the loop sleeps until
    a window's first query is due — open-loop: it never sleeps to let a
    slow server catch up, and {!report}[.max_lag] records how far behind
    the schedule it fell. [on_window] is called after every window with
    cumulative progress (the CLI hangs its steady-state telemetry
    snapshots off it).

    [churn] events (sorted internally) swap the active fault plan at query
    boundaries; each swap closes the affected instances' current
    {!segment}. Resilient instances compose transparently — wrap entries
    with {!Resilient} (catalog ["+res"] ids) and the recovery ladder runs
    under whatever plan the churn has made active.

    [topo] events change the graph itself. When one fires the loop closes
    the current {!epoch}, calls [repairer graph ops] (mandatory whenever
    [topo] is non-empty), and answers the queries that piled up while it
    ran — the staleness window — on the old instances wrapped in
    {!Resilient}, under a fault plan failing the delta's removed links,
    against the old oracle: delivery never stops during a repair. Then it
    installs the repaired (graph, instances, apsp) atomically between two
    chunks and opens the next epoch. Unpaced runs use one round of chunks
    as the staleness window; paced runs use the actual wall-clock backlog
    (at least one query per instance). Fault-churn boundaries falling
    inside a repair window are applied as soon as it closes; fault plans
    compiled against an older epoch's graph stay legal — links they name
    that no longer exist are simply never traversed.

    @raise Invalid_argument on an empty instance list, [budget < 0],
    [chunk < 1], topology churn without a [repairer], or a repairer
    returning a different number of instances. *)
