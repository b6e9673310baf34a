(** User programs as data: a list of steps over named slots,
    interpreted against the kernel API.  Pure values — the same program
    runs unchanged against any configuration, and inside the
    full-system simulation ({!Session}) where steps also cost time. *)

type step =
  | Create_segment of {
      path : string;
      acl : Multics_access.Acl.t;
      label : Multics_access.Label.t;
      slot : string;  (** receives the new segment number *)
    }
  | Create_directory of {
      path : string;
      acl : Multics_access.Acl.t;
      label : Multics_access.Label.t;
      slot : string;
    }
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
  | Compute of int  (** pure computation, in simulated cycles *)
  | Assert_slot of { slot : string; expected : int }
  | Repeat of int * step list

and value = Const of int | Slot of string

type t

val make : name:string -> step list -> t
val name : t -> string

type outcome = {
  completed : bool;
  failed_step : string option;  (** first failing step's message *)
  slots : (string * int) list;  (** final slot values, sorted by name *)
  steps_run : int;
  gate_calls : int;  (** steps that entered the kernel *)
}

val run :
  ?on_compute:(int -> unit) ->
  ?on_gate:(step -> unit) ->
  ?on_reference:(segno:int -> offset:int -> write:bool -> unit) ->
  System.t ->
  handle:int ->
  t ->
  outcome
(** Interpret the program as the given process.  A failing step stops
    the program (recorded in [failed_step]); later steps do not run.
    The hooks feed the timed interpreter in {!Session}: [on_compute]
    for [Compute] steps, [on_gate] before each kernel-entering step,
    [on_reference] before each content read/write (the paging hook).
    Defaults ignore them. *)
