(** Bounded retry with exponential backoff and seeded jitter.

    Backoff time is spent on the {!Clock}, so it burns the request's
    deadline budget, is deterministic under a virtual clock and sleeps
    on the real one; jitter is drawn from the caller's {!Prng.Rng.t} —
    no hidden randomness. *)

type policy = {
  max_attempts : int;  (** total attempts, including the first *)
  base_ms : float;     (** backoff before the second attempt *)
  multiplier : float;  (** geometric growth per further attempt *)
  jitter : float;
      (** relative jitter amplitude: the delay is scaled by
          [1 + jitter·u], [u ~ U(-1, 1)].  [0] disables jitter. *)
}

val default : policy
(** 3 attempts, 1 ms base, 2× growth, ±50% jitter. *)

val backoff_ms : policy -> Prng.Rng.t -> attempt:int -> float
(** Delay to wait {e after} failed attempt number [attempt] (1-based).
    Raises [Invalid_argument] when [attempt < 1]. *)

type 'a attempt =
  | Done of 'a           (** success — stop *)
  | Transient of string  (** worth retrying (e.g. unhealthy solve) *)
  | Fatal of string      (** retrying cannot help (bad input, deadline) *)

type 'a outcome = {
  result : ('a, string) result;  (** [Error] carries the last failure *)
  attempts : int;                (** attempts actually made *)
}

val run :
  policy ->
  clock:Clock.t ->
  rng:Prng.Rng.t ->
  ?deadline:Deadline.t ->
  (attempt:int -> 'a attempt) ->
  'a outcome
(** Run [f] up to [max_attempts] times, advancing the clock by the
    jittered backoff between attempts.  Stops immediately on [Done] or
    [Fatal], and refuses to start (or continue into) an attempt once
    [deadline] is expired. *)
