(* Typed-dispatch projections shared by the test suite.

   The legacy per-gate [Api] wrappers are gone; every kernel entry in
   the tests goes through [Api.Call.dispatch] (the single audited
   entry point) and these helpers project each reply back to the shape
   the assertions want.  A mismatched reply is impossible by
   construction — each dispatch arm returns its request's reply
   constructor — so the [invalid_arg] arms keep the impossible loud. *)

open Multics_kernel

let mismatch what = invalid_arg ("gate_calls." ^ what ^ ": dispatch returned a mismatched reply")

let unit_reply what = function
  | Ok Api.Call.Done -> Ok ()
  | Error e -> Error e
  | Ok _ -> mismatch what

let segno_reply what = function
  | Ok (Api.Call.Segno segno) -> Ok segno
  | Error e -> Error e
  | Ok _ -> mismatch what

let dispatch = Api.Call.dispatch

(* ----- Storage-system gates ----- *)

let write_word system ~handle ~segno ~offset ~value =
  unit_reply "write_word" (dispatch system ~handle (Api.Call.Write_word { segno; offset; value }))

let read_word system ~handle ~segno ~offset =
  match dispatch system ~handle (Api.Call.Read_word { segno; offset }) with
  | Ok (Api.Call.Word value) -> Ok value
  | Error e -> Error e
  | Ok _ -> mismatch "read_word"

(* The storage calls [Write_word] makes once the SDW has granted the
   write: charge the governing quota cell for any growth, then store.
   For tests that drive a bare hierarchy. *)
let store_word hierarchy ~uid ~offset ~value =
  let module Hierarchy = Multics_fs.Hierarchy in
  Result.map
    (fun () ->
      if not (Hierarchy.raw_write_word hierarchy ~uid ~offset ~value) then
        invalid_arg "gate_calls.store_word: not a segment")
    (Hierarchy.charge_growth hierarchy ~uid ~offset)

let set_acl system ~handle ~segno ~acl =
  unit_reply "set_acl" (dispatch system ~handle (Api.Call.Set_acl { segno; acl }))

let set_quota system ~handle ~segno ~quota =
  unit_reply "set_quota" (dispatch system ~handle (Api.Call.Set_quota { segno; quota }))

let create_segment system ~handle ~dir_segno ~name ~acl ~label =
  segno_reply "create_segment"
    (dispatch system ~handle (Api.Call.Create_segment { dir_segno; name; acl; label; brackets = None }))

let create_directory system ~handle ~dir_segno ~name ~acl ~label =
  segno_reply "create_directory"
    (dispatch system ~handle (Api.Call.Create_directory { dir_segno; name; acl; label }))

let list_directory system ~handle ~dir_segno =
  match dispatch system ~handle (Api.Call.List_directory { dir_segno }) with
  | Ok (Api.Call.Names names) -> Ok names
  | Error e -> Error e
  | Ok _ -> mismatch "list_directory"

(* ----- Naming gates ----- *)

let resolve_path system ~handle ~path =
  segno_reply "resolve_path" (dispatch system ~handle (Api.Call.Resolve_path { path }))

let create_segment_by_path system ~handle ~path ~acl ~label =
  segno_reply "create_segment_by_path"
    (dispatch system ~handle (Api.Call.Create_segment_by_path { path; acl; label; brackets = None }))

let terminate_by_path system ~handle ~path =
  unit_reply "terminate_by_path" (dispatch system ~handle (Api.Call.Terminate_by_path { path }))

let initiate_count system ~handle =
  match dispatch system ~handle Api.Call.Initiate_count with
  | Ok (Api.Call.Word count) -> Ok count
  | Error e -> Error e
  | Ok _ -> mismatch "initiate_count"

let get_working_dir system ~handle =
  segno_reply "get_working_dir" (dispatch system ~handle Api.Call.Get_working_dir)

let set_working_dir system ~handle ~dir_segno =
  unit_reply "set_working_dir" (dispatch system ~handle (Api.Call.Set_working_dir { dir_segno }))

(* ----- Linker gates ----- *)

let list_links system ~handle ~segno =
  match dispatch system ~handle (Api.Call.List_links { segno }) with
  | Ok (Api.Call.Links links) -> Ok links
  | Error e -> Error e
  | Ok _ -> mismatch "list_links"

(* ----- Subsystem entry ----- *)

let enter_subsystem system ~handle ~segno ~entry_offset ~name =
  match dispatch system ~handle (Api.Call.Enter_subsystem { segno; entry_offset; name }) with
  | Ok (Api.Call.Entered ring) -> Ok ring
  | Error e -> Error e
  | Ok _ -> mismatch "enter_subsystem"

let exit_subsystem system ~handle =
  match dispatch system ~handle Api.Call.Exit_subsystem with
  | Ok (Api.Call.Entered ring) -> Ok ring
  | Error e -> Error e
  | Ok _ -> mismatch "exit_subsystem"

(* ----- IPC gates ----- *)

let create_channel system ~handle =
  match dispatch system ~handle Api.Call.Create_channel with
  | Ok (Api.Call.Channel channel) -> Ok channel
  | Error e -> Error e
  | Ok _ -> mismatch "create_channel"

let send_wakeup system ~handle ~channel =
  unit_reply "send_wakeup" (dispatch system ~handle (Api.Call.Send_wakeup { channel }))

let block system ~handle ~channel =
  match dispatch system ~handle (Api.Call.Block { channel }) with
  | Ok (Api.Call.Consumed pending) -> Ok pending
  | Error e -> Error e
  | Ok _ -> mismatch "block"

(* ----- I/O gates ----- *)

let attach_device system ~handle ~device =
  unit_reply "attach_device" (dispatch system ~handle (Api.Call.Attach_device { device }))

let detach_device system ~handle ~device =
  unit_reply "detach_device" (dispatch system ~handle (Api.Call.Detach_device { device }))

let device_write system ~handle ~device ~message =
  unit_reply "device_write" (dispatch system ~handle (Api.Call.Device_write { device; message }))

let device_read system ~handle ~device =
  match dispatch system ~handle (Api.Call.Device_read { device }) with
  | Ok (Api.Call.Message message) -> Ok message
  | Error e -> Error e
  | Ok _ -> mismatch "device_read"

(* ----- Process-management gates ----- *)

let create_process system ~handle =
  match dispatch system ~handle Api.Call.Create_process with
  | Ok (Api.Call.Process child) -> Ok child
  | Error e -> Error e
  | Ok _ -> mismatch "create_process"

let destroy_process system ~handle ~target =
  unit_reply "destroy_process" (dispatch system ~handle (Api.Call.Destroy_process { target }))

let new_proc system ~handle =
  match dispatch system ~handle Api.Call.New_proc with
  | Ok (Api.Call.Process fresh) -> Ok fresh
  | Error e -> Error e
  | Ok _ -> mismatch "new_proc"

let proc_info system ~handle =
  match dispatch system ~handle Api.Call.Proc_info with
  | Ok (Api.Call.Info info) -> Ok info
  | Error e -> Error e
  | Ok _ -> mismatch "proc_info"

let list_processes system ~handle =
  match dispatch system ~handle Api.Call.List_processes with
  | Ok (Api.Call.Processes handles) -> Ok handles
  | Error e -> Error e
  | Ok _ -> mismatch "list_processes"

(* ----- Operator surface ----- *)

let sched_status system ~handle =
  match dispatch system ~handle Api.Call.Sched_status with
  | Ok (Api.Call.Sched_report { policy; counters }) -> Ok (policy, counters)
  | Error e -> Error e
  | Ok _ -> mismatch "sched_status"

let sched_tune system ~handle ~param ~value =
  unit_reply "sched_tune" (dispatch system ~handle (Api.Call.Sched_tune { param; value }))
