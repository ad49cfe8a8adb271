(** Circuit breaker for the full-solve path.

    Classic three-state machine, driven entirely by the {!Clock} (no
    timer threads, deterministic under virtual time):

    - [Closed]: traffic flows; [failure_threshold] {e consecutive}
      failures trip it open ({!trips} and the [serve.breaker_trips]
      counter count each trip).
    - [Open]: {!allow} refuses — the engine answers from the cached
      factorization / labeled mean instead of burning solver time — until
      [cooldown_ms] elapses, after which the breaker turns [Half_open].
    - [Half_open]: one probe is allowed through; success closes the
      breaker, failure reopens it for another full cooldown. *)

type state = Closed | Open | Half_open
type t

val create : ?failure_threshold:int -> ?cooldown_ms:float -> Clock.t -> t
(** Defaults: 3 consecutive failures, 50 ms cooldown.  Raises
    [Invalid_argument] when [failure_threshold < 1]. *)

val state : t -> state
(** Current state (performs the lazy [Open] → [Half_open] transition). *)

val allow : t -> bool
(** May a request take the expensive path right now? *)

val record_success : t -> unit
val record_failure : t -> unit
val trips : t -> int
(** Times the breaker has opened (including half-open reopens). *)

val transitions : t -> int
(** Total observable state changes (trip, cooldown expiry, close), also
    counted in the [serve.breaker_transitions] telemetry counter. *)

val state_name : state -> string
(** ["closed"] / ["open"] / ["half_open"]. *)
