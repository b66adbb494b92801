package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (a counter that saw no activity).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtime/metrics sample names the benchmark reads.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mHeapLive   = "/gc/heap/live:bytes"
	mGoroutines = "/sched/goroutines:goroutines"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
)

// runtimeSnap is one read of the Go runtime counters the metrics use.
type runtimeSnap struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	return runtimeSnap{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// peakSampler polls the in-use heap (the bytes the last GC found live, so
// the peak does not depend on when collections happen to run) and the
// goroutine count on a fixed period and keeps the highest values seen, from
// start until stop returns.
type peakSampler struct {
	stopc chan struct{}
	done  chan struct{}

	mu         sync.Mutex
	heapPeak   uint64
	goroutines uint64
}

const samplePeriod = 5 * time.Millisecond

func startPeakSampler() *peakSampler {
	p := &peakSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	p.sample()
	go func() {
		defer close(p.done)
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		for {
			select {
			case <-p.stopc:
				return
			case <-t.C:
				p.sample()
			}
		}
	}()
	return p
}

func (p *peakSampler) sample() {
	s := []metrics.Sample{{Name: mHeapLive}, {Name: mGoroutines}}
	metrics.Read(s)
	p.mu.Lock()
	p.heapPeak = max(p.heapPeak, s[0].Value.Uint64())
	p.goroutines = max(p.goroutines, s[1].Value.Uint64())
	p.mu.Unlock()
}

// stop ends sampling and returns the peak heap bytes and goroutine count.
func (p *peakSampler) stop() (heapBytes, goroutines uint64) {
	close(p.stopc)
	<-p.done
	p.sample()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.heapPeak, p.goroutines
}
