// Command mcmrank is the worker process of a multi-process solve: it joins
// a TCP world being coordinated by `mcm -transport tcp` (or any other
// coordinator speaking the rendezvous protocol of internal/mpi/tcpnet),
// receives the job spec in the roster exchange, rebuilds the same input
// matrix and configuration locally, and runs its rank of MCM-DIST.
//
// The final mate vectors are allgathered, so a worker holds the full
// matching when the solve completes; -out makes it write the matching just
// like mcm does, which is how the transport smoke test cross-checks the
// backends.
//
// The chaos flags (-slow-to, -drop-to) give the worker a fault plan
// (mpi.FaultPlan) with link faults on its own outbound links. Every
// generation the worker joins runs under that one plan, so a drop fires
// once across the generations of a recoverable job.
//
// Example (one coordinator plus three workers, any order):
//
//	mcm -rmat g500 -scale 10 -procs 4 -transport tcp -addr 127.0.0.1:9301 &
//	mcmrank -addr 127.0.0.1:9301 -rank 1 &
//	mcmrank -addr 127.0.0.1:9301 -rank 2 &
//	mcmrank -addr 127.0.0.1:9301 -rank 3
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"mcmdist/internal/distjob"
	"mcmdist/internal/mpi"
	"mcmdist/internal/mpi/tcpnet"
)

func main() {
	log.SetFlags(0)

	addr := flag.String("addr", "", "coordinator address to join (host:port)")
	rank := flag.Int("rank", -1, "world rank this process hosts (1..procs-1)")
	out := flag.String("out", "", "write the matching as 'row col' lines to this file")
	timeout := flag.Duration("timeout", 30*time.Second, "how long to keep dialing the coordinator")
	quiet := flag.Bool("quiet", false, "suppress the progress lines")
	slowTo := flag.Int("slow-to", -1, "chaos testing: delay every outbound data frame on the link to this rank")
	slowDelay := flag.Duration("slow-delay", 2*time.Millisecond, "chaos testing: per-frame delay for -slow-to")
	dropTo := flag.Int("drop-to", -1, "chaos testing: sever the link to this rank at the -drop-at-th outbound data frame")
	dropAt := flag.Int("drop-at", 5, "chaos testing: 1-based data frame whose send severs the -drop-to link")
	flag.Parse()

	if *addr == "" || *rank < 1 {
		log.Fatal("mcmrank: -addr and -rank (>= 1) are required; rank 0 is the coordinator (mcm -transport tcp)")
	}
	log.SetPrefix(fmt.Sprintf("mcmrank[%d]: ", *rank))
	say := func(format string, args ...any) {
		if !*quiet {
			log.Printf(format, args...)
		}
	}

	// The chaos flags build this worker's fault plan, which every
	// generation's world runs under — scripts/chaos_smoke.sh uses the slow
	// link to keep a solve running long enough to SIGKILL this process
	// mid-flight, and the drop to reproduce a link failure at an exact frame.
	var faults *mpi.FaultPlan
	if *slowTo >= 0 || *dropTo >= 0 {
		faults = &mpi.FaultPlan{}
		if *slowTo >= 0 {
			faults.SlowFrom, faults.SlowTo, faults.SlowDelay = *rank, *slowTo, *slowDelay
		}
		if *dropTo >= 0 {
			faults.DropFrom, faults.DropTo, faults.DropAtFrame = *rank, *dropTo, *dropAt
		}
	}

	say("joining %s", *addr)
	// WorkLoop behaves exactly like a single join-and-solve for ordinary
	// jobs; when the coordinator runs with -recover it also rejoins each
	// restarted generation until one completes (see internal/distjob).
	res, err := distjob.WorkLoop(*addr, *rank, tcpnet.Options{DialTimeout: *timeout}, faults, say)
	if err != nil {
		log.Fatal(err)
	}
	say("|M| = %d, phases %d, iterations %d",
		res.Stats.Cardinality, res.Stats.Phases, res.Stats.Iterations)

	if *out != "" {
		if err := distjob.WriteMatching(*out, res.Matching); err != nil {
			log.Fatal(err)
		}
		say("matching written to %s", *out)
	}
}
