(** A bounded in-memory trace collector on the simulated clock.

    Instrumented code emits {e spans} (an operation with a start time and
    a duration, e.g. a flush batch or a recovery phase) and {e instants}
    (a point event, e.g. one page rewind).  Events go into a fixed-size
    ring buffer; when it fills, the oldest events are overwritten and
    {!dropped} counts the loss, so tracing a long run keeps the most
    recent window instead of growing without bound.

    The collector is disabled by default.  The cost of a disabled
    instrumentation point is a single load and branch; the hot-path idiom
    is:

    {[
      let ts = if Trace.on () then Trace.now () else 0.0 in
      (* ... the work ... *)
      if Trace.on () then Trace.complete ~cat:"wal" ~ts "log.flush_batch"
    ]}

    Timestamps come from an installed clock closure.
    {!Rw_engine.Engine.create} installs the engine's simulated clock, so
    span durations line up with the simulated I/O costs that dominate
    every experiment (and are deterministic across runs).

    {!dump} exports the buffer in Chrome [trace_event] format,
    which {{:https://ui.perfetto.dev}Perfetto} and [chrome://tracing]
    open directly. *)

type arg = Int of int | Float of float | Str of string
(** Typed key/value payload attached to an event. *)

type phase = Span | Instant

type event = {
  name : string;
  cat : string;  (** category, e.g. ["wal"], ["buf"], ["recovery"] *)
  ph : phase;
  ts : float;  (** start timestamp, simulated µs *)
  dur : float;  (** duration, simulated µs; 0 for instants *)
  args : (string * arg) list;
}

val on : unit -> bool
(** Whether collection is enabled.  Check this before paying for
    timestamps or argument lists. *)

val enable : unit -> unit
val disable : unit -> unit

val configure : capacity:int -> unit -> unit
(** Replace the ring buffer with one of [capacity] events (discarding any
    collected events).  The default capacity is 65536.  (test support: the
    tests size the ring to check wraparound and isolate their events.) *)

val install_clock : (unit -> float) -> unit
(** Set the timestamp source (simulated µs).  Installed by
    [Engine.create]; defaults to a constant 0. *)

val now : unit -> float
(** Current timestamp from the installed clock. *)

val instant : ?args:(string * arg) list -> cat:string -> string -> unit
(** Record a point event.  No-op when disabled. *)

val complete : ?args:(string * arg) list -> cat:string -> ts:float -> string -> unit
(** [complete ~cat ~ts name] records a span that started at [ts] and ends
    now.  No-op when disabled. *)

val events : unit -> event list
(** Buffered events, oldest first. *)

val clear : unit -> unit
(** Empty the buffer and reset the dropped counter. *)

val dropped : unit -> int
(** Events lost to ring-buffer overwrite since the last {!clear}. *)

val dump : path:string -> unit
(** Write the buffer to [path] as a Chrome [trace_event] JSON document
    ([{"traceEvents": [...]}]). *)
