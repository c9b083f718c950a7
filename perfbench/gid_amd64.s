// The address of the running goroutine's g, for gid_amd64.go.

#include "textflag.h"

// func curg() uintptr
TEXT ·curg(SB),NOSPLIT,$0-8
	MOVQ (TLS), AX
	MOVQ AX, ret+0(FP)
	RET
