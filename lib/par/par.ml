(* Deterministic domain-pool runner.  See par.mli for the contract.

   Scheduling is a chunked work queue: workers claim half-open index
   ranges from a mutex-protected cursor, so task-to-worker assignment
   is schedule-dependent — but nothing observable depends on it.
   Results land in a preallocated array slot per task, each worker
   task records into its own domain-local Obs registry (reset before
   every task), and after the join the caller absorbs the per-task
   snapshots in task order.  Obs counter totals are additive and a
   gauge takes the last write in task order, so the merged registry
   matches a sequential run. *)

module Obs = Multics_obs.Obs

let clamp lo hi v = if v < lo then lo else if v > hi then hi else v

let default_jobs () =
  match Sys.getenv_opt "MULTICS_JOBS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> clamp 1 64 n
      | None -> 1)

(* A worker task calling back into Par (a fleet sweep inside a
   per-seed run) must not spawn a second layer of domains. *)
let in_worker_key = Domain.DLS.new_key (fun () -> false)

module Stats = struct
  type t = {
    pool_size : int;
    runs : int;
    tasks : int;
    per_worker : (int * int) list;
  }

  let mutex = Mutex.create ()
  let last_pool = ref 1
  let total_runs = ref 0
  let total_tasks = ref 0
  let worker_tasks : (int, int) Hashtbl.t = Hashtbl.create 8

  let note ~pool ~counts =
    Mutex.lock mutex;
    last_pool := pool;
    incr total_runs;
    Array.iteri
      (fun slot n ->
        if n > 0 then begin
          total_tasks := !total_tasks + n;
          let prev = Option.value ~default:0 (Hashtbl.find_opt worker_tasks slot) in
          Hashtbl.replace worker_tasks slot (prev + n)
        end)
      counts;
    Mutex.unlock mutex

  let snapshot () =
    Mutex.lock mutex;
    let per_worker =
      Hashtbl.fold (fun slot n acc -> (slot, n) :: acc) worker_tasks []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    let t =
      {
        pool_size = !last_pool;
        runs = !total_runs;
        tasks = !total_tasks;
        per_worker;
      }
    in
    Mutex.unlock mutex;
    t

  let reset () =
    Mutex.lock mutex;
    last_pool := 1;
    total_runs := 0;
    total_tasks := 0;
    Hashtbl.reset worker_tasks;
    Mutex.unlock mutex
end

let map_inline f xs =
  let results = List.map f xs in
  Stats.note ~pool:1 ~counts:[| List.length xs |];
  results

let map_parallel ~pool f tasks =
  let n = Array.length tasks in
  let results = Array.make n None in
  let errors = Array.make n None in
  let snaps = Array.make n None in
  let counts = Array.make pool 0 in
  (* Chunks amortise queue locking but stay small enough to balance
     uneven per-seed costs across the pool. *)
  let chunk = max 1 (n / (pool * 8)) in
  let queue_mutex = Mutex.create () in
  let cursor = ref 0 in
  let claim () =
    Mutex.lock queue_mutex;
    let lo = !cursor in
    if lo < n then cursor := min n (lo + chunk);
    Mutex.unlock queue_mutex;
    if lo >= n then None else Some (lo, min n (lo + chunk))
  in
  let caller_enabled = Obs.enabled () in
  let worker slot () =
    Domain.DLS.set in_worker_key true;
    Obs.set_enabled caller_enabled;
    let registry = Obs.Registry.global () in
    let ran = ref 0 in
    let rec drain () =
      match claim () with
      | None -> ()
      | Some (lo, hi) ->
          for i = lo to hi - 1 do
            Obs.Registry.reset registry;
            (match f tasks.(i) with
            | r -> results.(i) <- Some r
            | exception e -> errors.(i) <- Some e);
            snaps.(i) <- Some (Obs.Snapshot.capture ~registry ());
            incr ran
          done;
          drain ()
    in
    drain ();
    counts.(slot) <- !ran
  in
  let domains = Array.init pool (fun slot -> Domain.spawn (worker slot)) in
  Array.iter Domain.join domains;
  Stats.note ~pool ~counts;
  (* Reduce in task order: absorb each task's recordings up to (and
     excluding) the first failure, then re-raise deterministically. *)
  let caller_registry = Obs.Registry.global () in
  let out = ref [] in
  (try
     for i = 0 to n - 1 do
       match errors.(i) with
       | Some e -> raise e
       | None ->
           (match snaps.(i) with
           | Some s -> Obs.Snapshot.absorb ~into:caller_registry s
           | None -> ());
           out := Option.get results.(i) :: !out
     done
   with e ->
     (* Keep recordings already absorbed, as a sequential run would. *)
     raise e);
  List.rev !out

let map ?jobs f xs =
  let jobs =
    match jobs with Some j -> clamp 1 64 j | None -> default_jobs ()
  in
  let n = List.length xs in
  if n = 0 then []
  else if jobs <= 1 || n <= 1 || Domain.DLS.get in_worker_key then map_inline f xs
  else map_parallel ~pool:(min jobs n) f (Array.of_list xs)

let run_seeds ?jobs n f = map ?jobs f (List.init n Fun.id)
