(** The process's one real clock.

    Every real-time reading in the libraries and the [repro] binary goes
    through {!now_ns}: span timings, the serve layer's monotonic clock,
    latency-stall busy-waits, the pool's busy time and the harnesses'
    wall time.  It reads the
    operating system's monotonic clock, so a reading never runs
    backwards and NTP steps do not move it. *)

val now_ns : unit -> float
(** Nanoseconds since an arbitrary fixed origin (system boot on Linux).
    Only differences between readings are meaningful. *)
