(* Global on/off switch plus reset hooks.  The sibling modules (Counter,
   Span) register a hook here at module-initialisation time so that
   [reset] clears every metric in one call.

   The switch is a plain bool ref: instrumentation sites pay one load and
   one branch when telemetry is disabled, which keeps the disabled-mode
   overhead unmeasurable next to the O(n^2)/O(n^3) work they wrap. *)

let enabled = ref false
let enable () = enabled := true
let disable () = enabled := false
let is_enabled () = !enabled

let reset_hooks : (unit -> unit) list ref = ref []
let on_reset f = reset_hooks := f :: !reset_hooks
let reset () = List.iter (fun f -> f ()) !reset_hooks

let with_enabled f =
  let was = !enabled in
  enabled := true;
  Fun.protect ~finally:(fun () -> enabled := was) f

let with_disabled f =
  let was = !enabled in
  enabled := false;
  Fun.protect ~finally:(fun () -> enabled := was) f
