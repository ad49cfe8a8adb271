type t =
  | Monotonic
  | Virtual of { mutable now_ms : float }

let monotonic () = Monotonic
let virtual_ ?(start_ms = 0.) () = Virtual { now_ms = start_ms }
let is_virtual = function Virtual _ -> true | Monotonic -> false

let now_ms = function
  | Monotonic -> Telemetry.Monotonic.now_ns () *. 1e-6
  | Virtual v -> v.now_ms

let advance t ms =
  if ms > 0. then
    match t with
    | Virtual v -> v.now_ms <- v.now_ms +. ms
    | Monotonic -> Unix.sleepf (ms *. 1e-3)

let jump t target_ms =
  match t with
  | Virtual v -> if target_ms > v.now_ms then v.now_ms <- target_ms
  | Monotonic -> ()
