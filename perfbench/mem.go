package main

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// memSampler tracks the peak memory footprint of the Go runtime: memory
// it has mapped minus what it has returned to the operating system, which
// is what the process holds resident for its heap, stacks and runtime
// structures. It samples every memSampleEvery.
type memSampler struct {
	peak    atomic.Uint64
	stop    chan struct{}
	stopped sync.WaitGroup
}

const memSampleEvery = 5 * time.Millisecond

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{})}
	m.stopped.Add(1)
	go func() {
		defer m.stopped.Done()
		samples := []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			used := samples[0].Value.Uint64() - samples[1].Value.Uint64()
			for {
				p := m.peak.Load()
				if used <= p || m.peak.CompareAndSwap(p, used) {
					break
				}
			}
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// takePeakMB returns the peak since the previous call, in MB, and starts a
// new window.
func (m *memSampler) takePeakMB() float64 {
	return float64(m.peak.Swap(0)) / (1 << 20)
}

// close stops the sampler and waits for it to exit.
func (m *memSampler) close() {
	close(m.stop)
	m.stopped.Wait()
}
