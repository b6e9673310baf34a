(* User programs as data.

   The paper's threat model is "a wily user can construct a program";
   this module gives the reproduction that notion concretely: a program
   is a list of steps over named slots, interpreted against the kernel
   API.  Programs are pure values, so the same program can be run
   against different kernel configurations (the integration tests do
   exactly that) or inside the full-system simulation ({!Session}),
   where each step also costs simulated time.

   Slots are the program's registers: segment numbers land in slots
   ([Resolve], [Create_segment], [Snap_link]); word values land in
   slots ([Read_word]); later steps name them. *)

type step =
  | Create_segment of { path : string; acl : Multics_access.Acl.t; label : Multics_access.Label.t; slot : string }
  | Create_directory of { path : string; acl : Multics_access.Acl.t; label : Multics_access.Label.t; slot : string }
  | Resolve of { path : string; slot : string }
  | Delete of { path : string }
  | Write_word of { seg : string; offset : int; value : value }
  | Read_word of { seg : string; offset : int; slot : string }
  | Bind_name of { name : string; seg : string }
  | Lookup_name of { name : string; slot : string }
  | Snap_link of { seg : string; link_index : int; slot : string }
  | Enter_subsystem of { seg : string; entry_offset : int; name : string }
  | Exit_subsystem
  | Set_acl of { seg : string; acl : Multics_access.Acl.t }
  | Compute of int  (** pure computation: simulated cycles *)
  | Assert_slot of { slot : string; expected : int }
  | Repeat of int * step list

and value = Const of int | Slot of string

type t = { program_name : string; steps : step list }

let make ~name steps = { program_name = name; steps }

let name t = t.program_name

(* ----- Interpretation state ----- *)

type outcome = {
  completed : bool;
  failed_step : string option;
  slots : (string * int) list;  (** final slot values, sorted *)
  steps_run : int;
  gate_calls : int;  (** steps that crossed into the kernel *)
}

type env = {
  mutable bindings : (string * int) list;
  mutable count : int;
  mutable gates : int;
  on_compute : int -> unit;  (** hook for the timed interpreter *)
  on_gate : step -> unit;  (** called before each kernel-entering step *)
  on_reference : segno:int -> offset:int -> write:bool -> unit;
      (** called before each content reference (paging hook) *)
}

exception Step_failed of string

let slot_value env slot =
  match List.assoc_opt slot env.bindings with
  | Some v -> v
  | None -> raise (Step_failed (Printf.sprintf "slot %S is unset" slot))

let set_slot env slot v = env.bindings <- (slot, v) :: List.remove_assoc slot env.bindings

let value_of env = function Const v -> v | Slot s -> slot_value env s

(* Kernel steps go through the typed gate surface; each projection
   names the one reply its dispatch arm can return. *)
let dispatch_exn what system ~handle request project =
  match Api.Call.dispatch system ~handle request with
  | Error e -> raise (Step_failed (Fmt.str "%s: %a" what Api.pp e))
  | Ok reply -> (
      match project reply with
      | Some v -> v
      | None -> invalid_arg ("Program." ^ what ^ ": dispatch returned a mismatched reply"))

let env_exn what = function
  | Ok v -> v
  | Error e -> raise (Step_failed (what ^ ": " ^ User_env.error_to_string e))

(* Execute one step.  The [gate] counter tracks steps that enter the
   kernel (everything except pure computation and assertions). *)
let rec exec_step system ~handle env step =
  env.count <- env.count + 1;
  let is_kernel_step =
    match step with
    | Compute _ | Assert_slot _ | Repeat _ -> false
    | Create_segment _ | Create_directory _ | Resolve _ | Delete _ | Write_word _
    | Read_word _ | Bind_name _ | Lookup_name _ | Snap_link _ | Enter_subsystem _
    | Exit_subsystem | Set_acl _ -> true
  in
  if is_kernel_step then
    (* Fire the hook after the step, whether it succeeded or failed:
       a refused call crossed the gate too.  The timed interpreter
       reads the audit trail there to charge the real number of
       crossings (a user-ring resolve is several initiate calls). *)
    Fun.protect ~finally:(fun () -> env.on_gate step) (fun () -> exec_kernel_step system ~handle env step)
  else exec_plain_step system ~handle env step

and exec_kernel_step system ~handle env step =
  match step with
  | Create_segment { path; acl; label; slot } ->
      env.gates <- env.gates + 1;
      set_slot env slot
        (env_exn "create_segment" (User_env.create_segment_at system ~handle ~path ~acl ~label))
  | Create_directory { path; acl; label; slot } ->
      env.gates <- env.gates + 1;
      set_slot env slot
        (env_exn "create_directory" (User_env.create_directory_at system ~handle ~path ~acl ~label))
  | Resolve { path; slot } ->
      env.gates <- env.gates + 1;
      set_slot env slot (env_exn "resolve" (User_env.resolve_path system ~handle ~path))
  | Delete { path } ->
      env.gates <- env.gates + 1;
      env_exn "delete" (User_env.delete_at system ~handle ~path)
  | Write_word { seg; offset; value } ->
      env.gates <- env.gates + 1;
      let segno = slot_value env seg in
      env.on_reference ~segno ~offset ~write:true;
      dispatch_exn "write_word" system ~handle
        (Api.Call.Write_word { segno; offset; value = value_of env value })
        (function Api.Call.Done -> Some () | _ -> None)
  | Read_word { seg; offset; slot } ->
      env.gates <- env.gates + 1;
      let segno = slot_value env seg in
      env.on_reference ~segno ~offset ~write:false;
      set_slot env slot
        (dispatch_exn "read_word" system ~handle
           (Api.Call.Read_word { segno; offset })
           (function Api.Call.Word value -> Some value | _ -> None))
  | Bind_name { name; seg } ->
      env.gates <- env.gates + 1;
      env_exn "bind_name" (User_env.bind_name system ~handle ~name ~segno:(slot_value env seg))
  | Lookup_name { name; slot } ->
      env.gates <- env.gates + 1;
      set_slot env slot (env_exn "lookup_name" (User_env.lookup_name system ~handle ~name))
  | Snap_link { seg; link_index; slot } ->
      env.gates <- env.gates + 1;
      let target, _offset =
        env_exn "snap_link"
          (User_env.snap_link system ~handle ~segno:(slot_value env seg) ~link_index)
      in
      set_slot env slot target
  | Enter_subsystem { seg; entry_offset; name } ->
      env.gates <- env.gates + 1;
      dispatch_exn "enter_subsystem" system ~handle
        (Api.Call.Enter_subsystem { segno = slot_value env seg; entry_offset; name })
        (function Api.Call.Entered _ -> Some () | _ -> None)
  | Exit_subsystem ->
      env.gates <- env.gates + 1;
      dispatch_exn "exit_subsystem" system ~handle Api.Call.Exit_subsystem
        (function Api.Call.Entered _ -> Some () | _ -> None)
  | Set_acl { seg; acl } ->
      env.gates <- env.gates + 1;
      dispatch_exn "set_acl" system ~handle
        (Api.Call.Set_acl { segno = slot_value env seg; acl })
        (function Api.Call.Done -> Some () | _ -> None)
  | Compute _ | Assert_slot _ | Repeat _ ->
      invalid_arg "Program: plain step reached the kernel interpreter"

and exec_plain_step system ~handle env step =
  match step with
  | Compute n -> env.on_compute n
  | Assert_slot { slot; expected } ->
      let actual = slot_value env slot in
      if actual <> expected then
        raise
          (Step_failed (Printf.sprintf "assertion failed: %s = %d, expected %d" slot actual expected))
  | Repeat (n, body) ->
      for _ = 1 to n do
        List.iter (exec_step system ~handle env) body
      done
  | Create_segment _ | Create_directory _ | Resolve _ | Delete _ | Write_word _ | Read_word _
  | Bind_name _ | Lookup_name _ | Snap_link _ | Enter_subsystem _ | Exit_subsystem
  | Set_acl _ ->
      invalid_arg "Program: kernel step reached the plain interpreter"

(* Run a program to completion (or first failure) against a system.
   The hooks let the timed interpreter ({!Session}) consume simulated
   cycles per computation, gate crossing and memory reference; the
   untimed defaults ignore them. *)
let run ?(on_compute = fun _ -> ()) ?(on_gate = fun _ -> ())
    ?(on_reference = fun ~segno:_ ~offset:_ ~write:_ -> ()) system ~handle t =
  let env = { bindings = []; count = 0; gates = 0; on_compute; on_gate; on_reference } in
  let failed_step =
    try
      List.iter (exec_step system ~handle env) t.steps;
      None
    with Step_failed message -> Some message
  in
  {
    completed = failed_step = None;
    failed_step;
    slots = List.sort (fun (a, _) (b, _) -> String.compare a b) env.bindings;
    steps_run = env.count;
    gate_calls = env.gates;
  }
