(** A sampling profiler of host time.

    While running, a [SIGPROF] interval timer ([Unix.ITIMER_PROF], process
    CPU time) is set to fire every millisecond of CPU; its handler records
    the OCaml call stack ([Printexc.get_callstack]).  The kernel may
    deliver the signal less often than that (on a 2-core x86-64 Linux host,
    about once per 4 ms of CPU), so the report prints the CPU time per
    sample it measured ([Unix.times] at start and stop), not the timer's
    setting.  A frame is named by its function
    ([Module.function], library prefixes dropped).  Per frame it tallies
    {e self} samples (the frame was innermost) and {e inclusive} samples
    (the frame was anywhere on the stack, counted once per sample).

    OCaml runs signal handlers at safepoints (allocations and polls), so a
    sample lands on the next safepoint after the timer fired: self time
    piles onto allocating frames and inclusive shares are the ones to
    trust.  docs/OBSERVABILITY.md says how to read a profile.

    The engine libraries do not link this one (it needs [unix]); the shell
    and the bench harness do. *)

val with_profile : string option -> (unit -> 'a) -> 'a
(** [with_profile (Some path) f] runs [f] under the sampler, then writes
    its folded stacks to [path], one line per distinct stack, outermost
    frame first ([frame;frame;...;frame count], the input of flame-graph
    tools), and prints the sample count, the process CPU time it covers
    and the measured CPU time per sample, and the top 15 frames by self
    and by inclusive samples on stdout, also when [f] raises.
    [with_profile None f] is [f ()]: no handler or timer is installed. *)
