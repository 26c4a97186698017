package main

import (
	"errors"
	"sync"
	"time"

	"mcmdist/internal/mpi"
	"mcmdist/internal/mpi/tcpnet"
)

// The only code of the benchmark that reaches past the public API: the
// public surface has no bare collective, and the α-β constants of the two
// transports are what the latency-bound workloads pay per message and word.

const bigWords = 1 << 16

// pingPong times 2-rank Alltoallv exchanges of 1 and bigWords words per
// direction. Rank 0 stores α, the median 1-word exchange time in µs, and β,
// the median extra time per word in ns.
func pingPong(c *mpi.Comm, alphaUs, betaNs *float64) {
	peer := 1 - c.Rank()
	exchange := func(words, reps int) float64 {
		parts := make([][]int64, 2)
		parts[peer] = make([]int64, words)
		times := make([]float64, reps)
		for i := range times {
			t0 := time.Now()
			c.Alltoallv(parts)
			times[i] = float64(time.Since(t0).Nanoseconds())
		}
		return percentile(times, 500)
	}
	exchange(1, 20) // warm-up: first-use costs of the mailbox and buffers
	one := exchange(1, 200)
	big := exchange(bigWords, 20)
	if c.Rank() == 0 {
		*alphaUs = one / 1e3
		*betaNs = (big - one) / (bigWords - 1)
	}
}

// pingPongInproc measures α and β on the in-process backend.
func pingPongInproc() (alphaUs, betaNs float64, err error) {
	_, err = mpi.Run(2, func(c *mpi.Comm) error {
		pingPong(c, &alphaUs, &betaNs)
		return nil
	})
	return alphaUs, betaNs, err
}

// pingPongTCP measures α and β between two loopback TCP endpoints.
func pingPongTCP() (alphaUs, betaNs float64, err error) {
	eps, err := tcpnet.Loopback(2)
	if err != nil {
		return 0, 0, err
	}
	errs := make([]error, 2*len(eps))
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = mpi.RunTransport(mpi.RunConfig{}, ep, func(c *mpi.Comm) error {
				pingPong(c, &alphaUs, &betaNs)
				return nil
			})
		}()
	}
	wg.Wait()
	for i, ep := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[len(eps)+i] = ep.Close()
		}()
	}
	wg.Wait()
	return alphaUs, betaNs, errors.Join(errs...)
}
