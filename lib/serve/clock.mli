(** The serving layer's notion of time.

    Two implementations behind one interface:
    - [Monotonic] reads the real clock.  [advance] {e sleeps}, so a
      wait leaves its core free, and [jump] is a no-op (real time flows
      on its own).  This is what a live [gssl serve] session uses.
    - [Virtual] is a number.  [advance] and [jump] are arithmetic, so a
      whole multi-thousand-request trace replays in microseconds and —
      crucially — {e deterministically}: the same seed produces the same
      queue waits, the same deadline expiries, the same per-request
      outcomes.  This is what the chaos soak harness uses.

    Everything in [Serve] (deadlines, breaker cooldowns, queue
    simulation) tells time exclusively through this module, which is
    what makes the soak's determinism guarantee possible at all. *)

type t

val monotonic : unit -> t
val virtual_ : ?start_ms:float -> unit -> t
(** A virtual clock starting at [start_ms] (default 0). *)

val is_virtual : t -> bool
val now_ms : t -> float

val advance : t -> float -> unit
(** Let [ms] milliseconds pass: arithmetic on a virtual clock, a sleep
    ([Unix.sleepf]) on the monotonic one, which burns no CPU.  Time a
    worker spends busy, such as an injected latency stall, is the
    caller's to spin ({!Robust.Fault.busy_wait_ms}).  Negative or zero
    durations are no-ops. *)

val jump : t -> float -> unit
(** [jump t target_ms] moves a virtual clock forward to [target_ms]
    (never backward); no-op on the monotonic clock.  Used by the trace
    replayer to fast-forward idle gaps between arrivals. *)
