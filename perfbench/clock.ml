(* Monotonic time for every measurement the benchmark makes. *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)
