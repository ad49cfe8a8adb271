type state = Closed | Open | Half_open

type t = {
  clock : Clock.t;
  failure_threshold : int;
  cooldown_ms : float;
  mutable state_ : state;
  mutable consecutive_failures : int;
  mutable opened_at_ms : float;
  mutable trips : int;
  mutable transitions : int;
}

let c_trips = Telemetry.Counter.make "serve.breaker_trips"

let create ?(failure_threshold = 3) ?(cooldown_ms = 50.) clock =
  if failure_threshold < 1 then
    invalid_arg "Breaker.create: failure_threshold must be >= 1";
  { clock; failure_threshold; cooldown_ms; state_ = Closed;
    consecutive_failures = 0; opened_at_ms = 0.; trips = 0; transitions = 0 }

let c_transitions = Telemetry.Counter.make "serve.breaker_transitions"

(* Every observable state change goes through here, so the transition
   count covers trips, lazy cooldown expiries, and close-on-success. *)
let set_state t s =
  if t.state_ <> s then begin
    t.state_ <- s;
    t.transitions <- t.transitions + 1;
    Telemetry.Counter.incr c_transitions
  end

(* Open -> Half_open is a lazy, clock-driven transition: there is no
   timer thread, the next observation performs it. *)
let refresh t =
  match t.state_ with
  | Open when Clock.now_ms t.clock -. t.opened_at_ms >= t.cooldown_ms ->
      set_state t Half_open
  | _ -> ()

let state t =
  refresh t;
  t.state_

let allow t = match state t with Closed | Half_open -> true | Open -> false

let trip t =
  set_state t Open;
  t.opened_at_ms <- Clock.now_ms t.clock;
  t.trips <- t.trips + 1;
  Telemetry.Counter.incr c_trips

let record_success t =
  t.consecutive_failures <- 0;
  set_state t Closed

let record_failure t =
  match state t with
  | Half_open ->
      (* the probe failed: reopen for another full cooldown *)
      trip t
  | Closed ->
      t.consecutive_failures <- t.consecutive_failures + 1;
      if t.consecutive_failures >= t.failure_threshold then trip t
  | Open -> ()

let trips t = t.trips
let transitions t = t.transitions

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half_open"

