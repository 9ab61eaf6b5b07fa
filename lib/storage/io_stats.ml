type t = {
  mutable random_reads : int;
  mutable random_writes : int;
  mutable seq_read_bytes : int;
  mutable seq_write_bytes : int;
  mutable random_read_bytes : int;
  mutable random_write_bytes : int;
  (* Read-path cache layers (see DESIGN.md "Read-path caching layers").
     These count lookups, not costs: only a block miss is charged as a
     simulated random I/O, and record hits/misses never touch the clock. *)
  mutable log_block_hits : int;
  mutable log_block_misses : int;
  mutable log_record_hits : int;
  mutable log_record_misses : int;
  (* Write-path coalescing (see DESIGN.md "Write path").  Flush calls count
     every durability request; batches count the priced device writes that
     actually served them, and coalesced commits count the durability
     acknowledgements those batches delivered. *)
  mutable log_flush_calls : int;
  mutable log_flush_batches : int;
  mutable log_commits_coalesced : int;
  (* Fault injection and recovery (see DESIGN.md "Robustness").  Injected
     counts faults the plan actually fired; detected counts checksum/CRC
     mismatches observed by a reader; repaired counts pages rebuilt from
     the log; retries counts extra attempts after transient errors. *)
  mutable faults_injected : int;
  mutable corruptions_detected : int;
  mutable pages_repaired : int;
  mutable io_retries : int;
}

let create () =
  {
    random_reads = 0;
    random_writes = 0;
    seq_read_bytes = 0;
    seq_write_bytes = 0;
    random_read_bytes = 0;
    random_write_bytes = 0;
    log_block_hits = 0;
    log_block_misses = 0;
    log_record_hits = 0;
    log_record_misses = 0;
    log_flush_calls = 0;
    log_flush_batches = 0;
    log_commits_coalesced = 0;
    faults_injected = 0;
    corruptions_detected = 0;
    pages_repaired = 0;
    io_retries = 0;
  }

let copy t = { t with random_reads = t.random_reads }

let diff later earlier =
  {
    random_reads = later.random_reads - earlier.random_reads;
    random_writes = later.random_writes - earlier.random_writes;
    seq_read_bytes = later.seq_read_bytes - earlier.seq_read_bytes;
    seq_write_bytes = later.seq_write_bytes - earlier.seq_write_bytes;
    random_read_bytes = later.random_read_bytes - earlier.random_read_bytes;
    random_write_bytes = later.random_write_bytes - earlier.random_write_bytes;
    log_block_hits = later.log_block_hits - earlier.log_block_hits;
    log_block_misses = later.log_block_misses - earlier.log_block_misses;
    log_record_hits = later.log_record_hits - earlier.log_record_hits;
    log_record_misses = later.log_record_misses - earlier.log_record_misses;
    log_flush_calls = later.log_flush_calls - earlier.log_flush_calls;
    log_flush_batches = later.log_flush_batches - earlier.log_flush_batches;
    log_commits_coalesced = later.log_commits_coalesced - earlier.log_commits_coalesced;
    faults_injected = later.faults_injected - earlier.faults_injected;
    corruptions_detected = later.corruptions_detected - earlier.corruptions_detected;
    pages_repaired = later.pages_repaired - earlier.pages_repaired;
    io_retries = later.io_retries - earlier.io_retries;
  }

let add acc x =
  acc.random_reads <- acc.random_reads + x.random_reads;
  acc.random_writes <- acc.random_writes + x.random_writes;
  acc.seq_read_bytes <- acc.seq_read_bytes + x.seq_read_bytes;
  acc.seq_write_bytes <- acc.seq_write_bytes + x.seq_write_bytes;
  acc.random_read_bytes <- acc.random_read_bytes + x.random_read_bytes;
  acc.random_write_bytes <- acc.random_write_bytes + x.random_write_bytes;
  acc.log_block_hits <- acc.log_block_hits + x.log_block_hits;
  acc.log_block_misses <- acc.log_block_misses + x.log_block_misses;
  acc.log_record_hits <- acc.log_record_hits + x.log_record_hits;
  acc.log_record_misses <- acc.log_record_misses + x.log_record_misses;
  acc.log_flush_calls <- acc.log_flush_calls + x.log_flush_calls;
  acc.log_flush_batches <- acc.log_flush_batches + x.log_flush_batches;
  acc.log_commits_coalesced <- acc.log_commits_coalesced + x.log_commits_coalesced;
  acc.faults_injected <- acc.faults_injected + x.faults_injected;
  acc.corruptions_detected <- acc.corruptions_detected + x.corruptions_detected;
  acc.pages_repaired <- acc.pages_repaired + x.pages_repaired;
  acc.io_retries <- acc.io_retries + x.io_retries

let pp fmt t =
  Format.fprintf fmt "rreads:%d rwrites:%d seqR:%dB seqW:%dB" t.random_reads t.random_writes
    t.seq_read_bytes t.seq_write_bytes

let pp_caches fmt t =
  Format.fprintf fmt "block:%d/%d" t.log_block_hits (t.log_block_hits + t.log_block_misses)

let pp_writes fmt t =
  let per_batch =
    if t.log_flush_batches = 0 then 0.0
    else float_of_int t.log_commits_coalesced /. float_of_int t.log_flush_batches
  in
  Format.fprintf fmt "flushes:%d/%d commits-coalesced:%d (%.1f/batch)" t.log_flush_batches
    t.log_flush_calls t.log_commits_coalesced per_batch

let pp_faults fmt t =
  Format.fprintf fmt "injected:%d detected:%d repaired:%d retries:%d" t.faults_injected
    t.corruptions_detected t.pages_repaired t.io_retries
