(** A FreeRTOS-flavoured compatibility shim (P5, §3.2).

    The paper's core OS is deliberately not FreeRTOS/POSIX compatible,
    but notes that "wrappers can easily be implemented to bring
    compatibility".  This module is that wrapper for the APIs the ported
    FreeRTOS TCP/IP stack and similar code bases actually use: ticks and
    delays, queues, binary semaphores and critical sections — all
    mapped onto futexes, the queue library and the interrupt-posture
    rules (the paper replaced FreeRTOS's interrupt disabling with a
    mutex by changing one header; [enter_critical] is that mutex).

    Naming follows FreeRTOS conventions (a tolerated exception to the
    usual style, easing diff-review against ported sources). *)

type tick = int

val xTaskGetTickCount : Kernel.ctx -> tick
val vTaskDelay : Kernel.ctx -> tick -> unit
val pdMS_TO_TICKS : int -> tick

(** Queues: storage comes from the caller's allocation capability. *)
type queue

val xQueueCreate :
  Kernel.ctx -> alloc_cap:Kernel.value -> length:int -> item_size:int -> queue option

val xQueueSend : Kernel.ctx -> queue -> Kernel.value -> ticks_to_wait:tick -> bool
(** The item is read through the given capability. *)

val xQueueReceive : Kernel.ctx -> queue -> into:Kernel.value -> ticks_to_wait:tick -> bool
val uxQueueMessagesWaiting : Kernel.ctx -> queue -> int

(** Binary semaphores over a caller-provided futex word. *)
val xSemaphoreCreateBinary : Kernel.ctx -> word:Kernel.value -> unit
val xSemaphoreGive : Kernel.ctx -> word:Kernel.value -> unit
val xSemaphoreTake : Kernel.ctx -> word:Kernel.value -> ticks_to_wait:tick -> bool

(** Critical sections: FreeRTOS code expects to disable interrupts; on
    CHERIoT only the TCB may, so (as the paper did for the TCP/IP
    stack's port) these become a mutex over a caller-provided word. *)
val enter_critical : Kernel.ctx -> lock_word:Kernel.value -> unit
val exit_critical : Kernel.ctx -> lock_word:Kernel.value -> unit
