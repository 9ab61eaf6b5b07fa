(** One page batch: gather → apply → publish.

    Snapshot batch rewind ([As_of_snapshot]), log-scan redo
    ([Recovery.redo]) and the scrub sweep ([Database.scrub]) all prepare
    pages this way, and only their three stages differ:

    - {e gather} (calling domain): everything priced or shared — page
      reads, log reads, cache consultations — in entry order, reporting
      the modeled time of each read it charged;
    - {e apply} (round-robin over the pool's participants): pure CPU on
      the item's private state;
    - {e publish} (calling domain, ascending index): every shared effect.

    {b Determinism contract.}  The caller fixes the entries and their
    order; the fan-out never changes them.  Apply touches only item
    [i]'s private state, and gather and publish run on the calling domain
    in a fixed order, so pages, counters and caches are byte- and
    count-identical at any fan-out, including 1.  Fan-out moves modeled
    elapsed time only: the gather's reported costs are assigned to
    round-robin partitions and the clock is credited down to the slowest
    partition ([total − slowest], 0 at fan-out 1), since that many
    streams finish when the slowest does.  A gather that reports no costs
    takes no credit. *)

val run :
  clock:Rw_storage.Sim_clock.t ->
  span:string ->
  chunk:int ->
  gather:('e array -> 'b * float array) ->
  apply:('b -> int -> 'r) ->
  publish:('b -> int -> 'r -> unit) ->
  'e array ->
  int
(** [run ~clock ~span ~chunk ~gather ~apply ~publish entries] splits
    [entries] into consecutive batches of at most [max 1 chunk].  For
    each batch, [gather batch] returns the caller's batch state [b] and
    the costs its reads charged to [clock]; [apply b i] then runs for
    every index [i] of the batch over
    [Domain_pool.effective_fanout (Array.length batch)] participants;
    [clock] is credited the overlap of the costs; and [publish b i r]
    runs for every [i] in ascending order with apply's result [r].  An
    apply that raises is re-raised after the fan-out, before anything of
    its batch is published.  Each batch is one trace span named [span]
    (category [pool]) with [pages] and [fanout] arguments.  Returns the
    batches' fan-outs, summed. *)
