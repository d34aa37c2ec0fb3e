package main

import (
	"syscall"
	"testing"
)

// TestReferenceKernelAllocatesNothing: the machine-speed reading must not
// depend on the heap or the collector of the program under test, so a round
// works on the memory set aside for it and nothing else.
func TestReferenceKernelAllocatesNothing(t *testing.T) {
	k, err := newReferenceKernel(1)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(k.mem)
	if n := testing.AllocsPerRun(2, k.round); n != 0 {
		t.Errorf("a round allocates %v times", n)
	}
	if len(k.out) == 0 || cap(k.out) != kernelSlots/2 {
		t.Errorf("%d matches in a slice of capacity %d: the probes found nothing, or outgrew their memory", len(k.out), cap(k.out))
	}
}

func TestSpeedometerReadsAPositiveSpeed(t *testing.T) {
	if v, err := (speedometer{mappings: 2, rounds: 1}).read(); err != nil || v <= 0 {
		t.Errorf("machine speed %v, %v", v, err)
	}
}
