(* A reusable pool of worker domains (OCaml 5 stdlib [Domain] only).

   The pool exists for the uniformisation hot loop: spawning a domain
   costs orders of magnitude more than one chunk of a sparse
   matrix-vector product, so the workers are spawned once and parked on
   a condition variable between parallel sections.  A parallel section
   ([run]) publishes a closure, bumps a generation counter, wakes every
   worker, executes share 0 on the calling domain, and waits for the
   stragglers — a plain fork-join barrier.

   Determinism is the caller's contract: [run]/[run_chunks] assign each
   share to exactly one worker index, so as long as the closure writes
   only locations owned by its share (the gather-based kernels in
   {!Sparse} do), the result is independent of scheduling.

   Nesting: a [run] issued from inside a worker (or from the caller
   share of an enclosing [run]) executes all shares inline on the
   current domain instead of touching the pool.  This makes it safe for
   a parallel experiment fan-out to call parallel sweeps — the
   outermost parallel section wins, inner ones degrade to the
   guaranteed sequential path. *)

type shared = {
  mutex : Mutex.t;
  start : Condition.t;  (* workers: a new generation was published *)
  finished : Condition.t;  (* caller: all workers completed the section *)
  mutable generation : int;
  mutable task : (int -> unit) option;  (* [None] tells workers to exit *)
  mutable pending : int;
  mutable failures : (int * exn * Printexc.raw_backtrace) list;
}

type t =
  | Sequential
  | Domains of {
      jobs : int;
      shared : shared;
      submit : Mutex.t;  (* serialises concurrent [run] calls *)
      domains : unit Domain.t array;
      mutable live : bool;
    }

(* True on any domain currently executing a share of a parallel
   section; [run] consults it to fall back to inline execution. *)
let in_section : bool ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref false)

let c_sections = Telemetry.counter "pool.sections"
let c_nested_inline = Telemetry.counter "pool.nested_inline"
let c_supervised = Telemetry.counter "pool.supervised_retries"

(* Worker-crash injection site for supervised sections: consulted at
   the start of every share, so an armed plan kills a share mid-section
   the way a dying domain would. *)
let fi_crash = Fi.site "pool.crash"

(* How many times a supervised section re-executes a crashed share
   before giving up (process-wide; the CLI wires --max-retries here so
   kernel sections share the experiment fan-out's retry budget). *)
let section_retries_cell = Atomic.make 0

let set_section_retries n =
  if n < 0 then invalid_arg "Pool.set_section_retries: need retries >= 0";
  Atomic.set section_retries_cell n

let section_retries () = Atomic.get section_retries_cell

(* Same policy as Par's retry loop: a cooperative stop is a decision,
   not a fault, and must surface immediately. *)
let retryable = function
  | Diag.Error (Diag.Cancelled _ | Diag.Budget_exhausted _) -> false
  | _ -> true

(* One attempt at a share of a supervised section: consult
   [pool.crash], then run the share.  [true] when it completed, [false]
   when it crashed and may run again (attempt [attempt] of the retry
   budget [retries]); anything else propagates.  Re-running a share in
   place, on the same domain, is safe because supervised callers (the
   gather-based kernels) write only locations owned by their share,
   idempotently — re-running the share overwrites the same outputs with
   the same values, so a recovered section is bitwise identical to an
   undisturbed one.  The share takes its data as an argument, so an
   undisturbed attempt allocates nothing. *)
let attempt_share f x w ~attempt ~retries =
  match
    Fi.inject fi_crash;
    f x w
  with
  | () -> true
  | exception e when attempt < retries && retryable e -> false

let apply f w = f w

(* A share of a supervised dispatched section; [retried] counts the
   failed attempts, across domains, for the caller's post-section
   diagnostic. *)
let supervised_share ~retried f w =
  let retries = Atomic.get section_retries_cell in
  let attempt = ref 0 in
  while not (attempt_share apply f w ~attempt:!attempt ~retries) do
    Atomic.incr retried;
    incr attempt
  done

(* Fork-join barrier wall time, caller's view: publish -> all workers
   done.  One observation per section, so enabling telemetry adds two
   clock reads per sweep step — noise next to the matvec it brackets. *)
let h_section = Telemetry.histogram "pool.section_seconds"

(* Per-task latency of [map_array] items, observed on the worker domain
   that ran the task. *)
let h_task = Telemetry.histogram "pool.task_seconds"

let seconds_since start_ns =
  Int64.to_float (Int64.sub (Telemetry.now_ns ()) start_ns) /. 1e9

let size = function Sequential -> 1 | Domains d -> d.jobs

let worker shared w =
  Domain.DLS.get in_section := true;
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock shared.mutex;
    while shared.generation = !seen do
      Condition.wait shared.start shared.mutex
    done;
    seen := shared.generation;
    let task = shared.task in
    Mutex.unlock shared.mutex;
    match task with
    | None -> ()
    | Some f ->
        let failure =
          match f w with
          | () -> None
          | exception e -> Some (w, e, Printexc.get_raw_backtrace ())
        in
        Mutex.lock shared.mutex;
        (match failure with
        | Some f -> shared.failures <- f :: shared.failures
        | None -> ());
        shared.pending <- shared.pending - 1;
        if shared.pending = 0 then Condition.signal shared.finished;
        Mutex.unlock shared.mutex;
        loop ()
  in
  loop ()

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: need jobs >= 1";
  if jobs = 1 then Sequential
  else begin
    let shared =
      {
        mutex = Mutex.create ();
        start = Condition.create ();
        finished = Condition.create ();
        generation = 0;
        task = None;
        pending = 0;
        failures = [];
      }
    in
    let domains =
      Array.init (jobs - 1) (fun i ->
          Domain.spawn (fun () -> worker shared (i + 1)))
    in
    Domains { jobs; shared; submit = Mutex.create (); domains; live = true }
  end

(* Recorded on the caller's domain after the section, so the note
   lands in the caller's Diag capture (if any) exactly once — the event
   stream is identical for every job count even though which share
   crashed is scheduling-dependent. *)
let note_retries r =
  if r > 0 then begin
    Telemetry.add c_supervised r;
    Diag.record ~fallback:true ~origin:"Pool"
      (Printf.sprintf
         "supervised section: re-executed crashed share(s) after %d failed \
          attempt%s"
         r
         (if r = 1 then "" else "s"))
  end

let runs_inline = function
  | Sequential -> true
  | Domains _ -> !(Domain.DLS.get in_section)

(* The shares run one after another on this domain, so the failed
   attempts are a plain count, and an undisturbed section allocates
   nothing and does no atomic read-modify-write. *)
let run_inline ?(supervise = false) t f x =
  let shares = size t in
  if supervise then begin
    let retries = Atomic.get section_retries_cell in
    let retried = ref 0 in
    for w = 0 to shares - 1 do
      let attempt = ref 0 in
      while not (attempt_share f x w ~attempt:!attempt ~retries) do
        incr attempt
      done;
      retried := !retried + !attempt
    done;
    note_retries !retried
  end
  else
    for w = 0 to shares - 1 do
      f x w
    done

let run ?(supervise = false) t f =
  match t with
  | Sequential -> run_inline ~supervise t apply f
  | Domains d ->
      let flag = Domain.DLS.get in_section in
      if !flag then begin
        (* Nested section: the pool is busy with the enclosing one. *)
        Telemetry.incr c_nested_inline;
        run_inline ~supervise t apply f
      end
      else begin
        if not d.live then invalid_arg "Pool.run: pool was shut down";
        let retried = Atomic.make 0 in
        let f = if supervise then supervised_share ~retried f else f in
        Telemetry.incr c_sections;
        let section_start =
          if Telemetry.enabled () then Telemetry.now_ns () else 0L
        in
        Mutex.lock d.submit;
        let s = d.shared in
        Mutex.lock s.mutex;
        s.task <- Some f;
        s.generation <- s.generation + 1;
        s.pending <- d.jobs - 1;
        s.failures <- [];
        Condition.broadcast s.start;
        Mutex.unlock s.mutex;
        (* The calling domain is worker 0 for the section's duration;
           flagging it routes nested [run]s to the inline path. *)
        flag := true;
        let caller_failure =
          match f 0 with
          | () -> None
          | exception e -> Some (0, e, Printexc.get_raw_backtrace ())
        in
        flag := false;
        Mutex.lock s.mutex;
        while s.pending > 0 do
          Condition.wait s.finished s.mutex
        done;
        let failures = s.failures in
        s.task <- None;
        Mutex.unlock s.mutex;
        Mutex.unlock d.submit;
        let failures =
          match caller_failure with
          | Some c -> c :: failures
          | None -> failures
        in
        if Telemetry.enabled () then
          Telemetry.observe h_section (seconds_since section_start);
        note_retries (Atomic.get retried);
        match
          List.sort (fun (a, _, _) (b, _, _) -> compare a b) failures
        with
        | [] -> ()
        | (_, e, bt) :: _ -> Printexc.raise_with_backtrace e bt
      end

let shutdown t =
  match t with
  | Sequential -> ()
  | Domains d ->
      if d.live then begin
        d.live <- false;
        Mutex.lock d.shared.mutex;
        d.shared.task <- None;
        d.shared.generation <- d.shared.generation + 1;
        Condition.broadcast d.shared.start;
        Mutex.unlock d.shared.mutex;
        Array.iter Domain.join d.domains
      end

let parallel_for t ~lo ~hi f =
  let n = hi - lo in
  if n > 0 then begin
    let parts = size t in
    if parts = 1 || n = 1 then f ~lo ~hi
    else begin
      let chunk = (n + parts - 1) / parts in
      run t (fun w ->
          let l = lo + (w * chunk) in
          let h = min hi (l + chunk) in
          if l < h then f ~lo:l ~hi:h)
    end
  end

let run_chunks ?(supervise = false) t bounds ~count f =
  if count < 0 || 2 * count > Array.length bounds then
    invalid_arg "Pool.run_chunks: chunk count";
  if count > 0 then
    match t with
    | Sequential ->
        run ~supervise Sequential (fun _ ->
            for i = 0 to count - 1 do
              let lo = bounds.(2 * i) and hi = bounds.((2 * i) + 1) in
              if lo < hi then f ~lo ~hi
            done)
    | Domains d ->
        run ~supervise t (fun w ->
            (* Chunk i is owned by worker [i mod jobs]: a fixed map, so
               every output location has exactly one writer no matter
               how the domains are scheduled. *)
            let i = ref w in
            while !i < count do
              let lo = bounds.(2 * !i) and hi = bounds.((2 * !i) + 1) in
              if lo < hi then f ~lo ~hi;
              i := !i + d.jobs
            done)

let map_array t f xs =
  let n = Array.length xs in
  match t with
  | Sequential -> Array.map f xs
  | Domains _ when n = 0 -> [||]
  | Domains _ ->
      let results = Array.make n None in
      let next = Atomic.make 0 in
      run t (fun _w ->
          let rec loop () =
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              (if Telemetry.enabled () then begin
                 let start = Telemetry.now_ns () in
                 results.(i) <- Some (f xs.(i));
                 Telemetry.observe h_task (seconds_since start)
               end
               else results.(i) <- Some (f xs.(i)));
              loop ()
            end
          in
          loop ());
      Array.map
        (function Some v -> v | None -> assert false (* run is a barrier *))
        results

(* ------------------------------------------------------------------ *)
(* Process-wide default                                                *)

let jobs_override = ref None

let set_default_jobs jobs =
  if jobs < 1 then invalid_arg "Pool.set_default_jobs: need jobs >= 1";
  jobs_override := Some jobs

let env_jobs () =
  match Sys.getenv_opt "BATLIFE_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | Some _ | None ->
          Diag.record ~origin:"Pool"
            (Printf.sprintf
               "ignoring invalid BATLIFE_JOBS=%S (want an integer >= 1)" s);
          None)

let default_jobs () =
  match !jobs_override with
  | Some n -> n
  | None -> (
      match env_jobs () with
      | Some n -> n
      | None -> max 1 (Domain.recommended_domain_count ()))

(* More worker domains than cores is a measured slowdown (on a 1-core
   container the fig-7 Delta=10 solve took 0.54 s at jobs = 1, 0.68 s
   at jobs = 2 and 0.83 s at jobs = 4; CHANGES.md records the run), so
   the CLI routes every explicit jobs request through this clamp.  The
   note is a plain (non-fallback) Diag event: discoverable by drains
   and tests, but not printed on stderr, so clamping never perturbs
   pinned CLI output.  Library callers asking [get ~jobs] directly are NOT
   clamped — the determinism tests deliberately oversubscribe. *)
let clamp_jobs requested =
  if requested < 1 then invalid_arg "Pool.clamp_jobs: need jobs >= 1";
  let cores = max 1 (Domain.recommended_domain_count ()) in
  if requested > cores then begin
    Diag.record ~origin:"Pool"
      (Printf.sprintf
         "requested %d worker domain(s) but only %d core(s) are available; \
          clamping to %d (oversubscribing domains is a slowdown)"
         requested cores cores);
    cores
  end
  else requested

(* Cached pools keyed by size, so repeated sweeps at the same job count
   reuse the parked domains.  Entries are never shut down: idle workers
   block on a condition variable and cost nothing. *)
let cache : (int, t) Hashtbl.t = Hashtbl.create 4
let cache_mutex = Mutex.create ()

let get ~jobs =
  if jobs < 1 then invalid_arg "Pool.get: need jobs >= 1";
  if jobs = 1 then Sequential
  else begin
    Mutex.lock cache_mutex;
    let pool =
      match Hashtbl.find_opt cache jobs with
      | Some p -> p
      | None ->
          let p = create ~jobs in
          Hashtbl.add cache jobs p;
          p
    in
    Mutex.unlock cache_mutex;
    pool
  end

let default () = get ~jobs:(default_jobs ())
