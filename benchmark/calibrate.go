package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machine this benchmark runs on is a two-core shared VM whose speed for
// memory-heavy work changes by a fifth to a third for minutes at a time: as
// the clock gave them, every workload's throughput ranged over 30–43 % in one
// hour of back-to-back runs, and two sets of ten runs a quarter of an hour
// apart had medians up to 32 % apart. That is more than any change the
// benchmark is meant to detect, and no statistic taken inside a ten-second
// run sees past a state that outlasts the run. So the timed end-to-end
// metrics are reported at a reference machine speed: a fixed reference kernel
// is timed before the run, between the chunks of the measurement window
// and after it, and the run's wall-clock figures are multiplied (times) or
// divided (rates) by the mean of those readings. README.md gives, for each
// of the six workloads, how closely the kernel's rate follows the workload's
// and what the scaling does to the run-to-run spread; the wall-clock figures
// and the readings are printed with every run.
//
// The kernel is part of the benchmark, so it never changes under a change
// being measured and a faster program shows up in full. It works on memory
// of its own, mapped outside the Go heap before anything is timed, and
// allocates nothing: its rate does not depend on the heap or the collector
// of the program under test, and its 20 MB do not move that program's
// collection target.

// nominalRoundsPerS is the reference kernel's rate, in rounds per second per
// processor, that reported times refer to: this machine's in a quiet minute
// (one round takes 18.5 ms). It only fixes the unit.
const nominalRoundsPerS = 54.0

// kernelSlots is the size of a reference kernel's hash table: 8 MiB, past
// the private caches, because the machine's slow states are in the memory
// system — a kernel that fits in cache does not see them (README.md).
const kernelSlots = 1 << 20

// referenceKernel is one processor's share of the reference work: rounds of
// a hash join over memory it owns.
type referenceKernel struct {
	mem   []byte   // the mapping slots and out are views of
	slots []uint64 // open addressing; key+1 in the high half, payload below, 0 = empty
	out   []int32  // capacity for as many matches as a round probes
	x     uint64   // xorshift state
}

func newReferenceKernel(salt uint64) (*referenceKernel, error) {
	const slotBytes, outBytes = 8 * kernelSlots, 4 * kernelSlots / 2
	mem, err := syscall.Mmap(-1, 0, slotBytes+outBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map memory: %w", err)
	}
	return &referenceKernel{
		mem:   mem,
		slots: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), kernelSlots),
		out:   unsafe.Slice((*int32)(unsafe.Pointer(&mem[slotBytes])), kernelSlots/2)[:0],
		x:     88172645463325252 + salt,
	}, nil
}

func (k *referenceKernel) next() uint64 {
	k.x ^= k.x << 13
	k.x ^= k.x >> 7
	k.x ^= k.x << 17
	return k.x
}

// round builds the table over a quarter of a million random keys, probes it
// half a million times and sorts the matches: sequential writes, random
// reads and writes past the caches, compares and swaps within them — a bit
// of everything the engine does, none of it through the allocator.
func (k *referenceKernel) round() {
	const keys, mask = kernelSlots / 4, kernelSlots - 1
	slot := func(key uint64) uint64 { return (key * 0x9E3779B97F4A7C15 >> 20) & mask }
	clear(k.slots)
	for i := 0; i < keys; i++ {
		key := k.next() % kernelSlots
		h := slot(key)
		for k.slots[h] != 0 && k.slots[h]>>32 != key+1 {
			h = (h + 1) & mask
		}
		k.slots[h] = (key+1)<<32 | uint64(i+1)
	}
	k.out = k.out[:0]
	for i := 0; i < 2*keys; i++ {
		key := k.next() % kernelSlots
		for h := slot(key); k.slots[h] != 0; h = (h + 1) & mask {
			if k.slots[h]>>32 == key+1 {
				k.out = append(k.out, int32(uint32(k.slots[h])))
				break
			}
		}
	}
	slices.Sort(k.out)
}

// speedometer reads the machine's speed with one reference kernel per
// processor, all running at once as the workloads' clients and workers do.
type speedometer struct {
	mappings int // fresh mappings per reading and processor
	rounds   int // timed rounds per mapping
}

// read times the reference kernel on every processor and returns the
// machine's speed relative to nominal (1 = nominal, lower = slower). Which
// physical pages a mapping gets moves the kernel's rate by ±8 % for as long
// as the mapping lives, so a reading maps its memory anew several times —
// each time with one untimed round first, which pays for the first touch of
// the pages — and no two readings share a draw.
func (s speedometer) read() (float64, error) {
	n := runtime.GOMAXPROCS(0)
	rates, errs := make([]float64, n), make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var timed time.Duration
			for m := 0; m < s.mappings; m++ {
				k, err := newReferenceKernel(uint64(g))
				if err != nil {
					errs[g] = err
					return
				}
				k.round()
				t0 := time.Now()
				for i := 0; i < s.rounds; i++ {
					k.round()
				}
				timed += time.Since(t0)
				if err := syscall.Munmap(k.mem); err != nil {
					errs[g] = err
					return
				}
			}
			rates[g] = float64(s.mappings*s.rounds) / timed.Seconds()
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("reference kernel: %w", err)
		}
	}
	return mean(rates) / nominalRoundsPerS, nil
}
