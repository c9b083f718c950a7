//go:build !amd64

package main

import "runtime"

func gid() uintptr { return uintptr(goid()) }

// goid returns the calling goroutine's id, parsed from the header line
// of its stack trace ("goroutine 123 [running]:"). It costs
// microseconds, paid only while recording.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	b := buf[:n]
	const prefix = "goroutine "
	if len(b) < len(prefix) {
		return 0
	}
	var id int64
	for _, c := range b[len(prefix):] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}
