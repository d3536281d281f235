// Command nfvmcastd runs NFV-multicast admission as a long-lived
// service: a shard router over journaled engines with an HTTP/JSON
// control surface and write-ahead-logged crash recovery.
//
// Usage:
//
//	nfvmcastd -addr :8080 -wal /var/lib/nfvmcast/wal \
//	          -topology geant -seed 42 -policy Online_CP -shards 4
//
// Boot replays each shard's WAL (if -wal is set) before the listener
// binds, so a restarted daemon answers with exactly the pre-crash
// state. SIGTERM/SIGINT drains gracefully: in-flight requests finish,
// each shard takes a final snapshot, and the logs close.
//
// Endpoints: POST /v1/submit, /v1/release, /v1/apply; GET /v1/report;
// plus /metrics, /metrics.json, /healthz, /debug/pprof/.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nfvmcast/internal/core"
	"nfvmcast/internal/daemon"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nfvmcastd:", err)
		os.Exit(1)
	}
}

// plannerNames lists the registered admission planners for the -policy
// help text.
func plannerNames() string {
	var names []string
	for _, spec := range core.Planners() {
		names = append(names, spec.Name)
	}
	return strings.Join(names, " | ")
}

func run(args []string) error {
	fs := flag.NewFlagSet("nfvmcastd", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", "127.0.0.1:8080", "HTTP listen address")
		walDir        = fs.String("wal", "", "WAL root directory (empty = in-memory, no durability)")
		topoName      = fs.String("topology", "geant", "topology: geant | as1755 | as4755 | waxman | fattree")
		nodes         = fs.Int("nodes", 100, "network size (waxman only)")
		seed          = fs.Int64("seed", 42, "substrate seed (capacities, costs, servers)")
		policy        = fs.String("policy", "Online_CP", "admission planner: "+plannerNames())
		shards        = fs.Int("shards", 1, "shard count")
		workers       = fs.Int("workers", 0, "admission workers per shard (0 = engine default)")
		batchWindow   = fs.Int("batch-window", 0, "epoch batch window per shard (0 = unbatched)")
		queueDepth    = fs.Int("queue-depth", 64, "bounded admission queue; beyond it submit answers 429")
		reqTimeout    = fs.Duration("request-timeout", 10*time.Second, "server-side deadline per request")
		segmentBytes  = fs.Int64("segment-bytes", 0, "WAL segment rotation threshold (0 = default)")
		snapshotEvery = fs.Int("snapshot-every", 0, "records between snapshots (0 = default, <0 = never)")
		noSync        = fs.Bool("no-sync", false, "skip fsync on WAL barriers (testing only — crashes may lose acked state)")
		drainTimeout  = fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests at shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv, err := daemon.New(daemon.Config{
		Topology:       *topoName,
		Nodes:          *nodes,
		Seed:           *seed,
		Policy:         *policy,
		Shards:         *shards,
		Workers:        *workers,
		BatchWindow:    *batchWindow,
		WALDir:         *walDir,
		SegmentBytes:   *segmentBytes,
		SnapshotEvery:  *snapshotEvery,
		NoSync:         *noSync,
		QueueDepth:     *queueDepth,
		RequestTimeout: *reqTimeout,
	})
	if err != nil {
		return err
	}
	for _, b := range srv.Boot() {
		fmt.Printf("shard %s: recovered to lsn %d (%d records, %d sessions adopted, snapshot lsn %d)\n",
			b.Shard, b.LastLSN, b.Records, b.Adopted, b.SnapshotLSN)
		if b.TornTail {
			fmt.Printf("shard %s: torn tail cut at lsn %d — unacked suffix discarded\n", b.Shard, b.LastLSN)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
		return err
	}
	fmt.Printf("nfvmcastd: listening on http://%s (topology %s, policy %s, %d shard(s)", ln.Addr(), *topoName, *policy, *shards)
	if *walDir != "" {
		fmt.Printf(", wal %s", *walDir)
	}
	fmt.Println(")")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if serr := srv.Shutdown(shutdownCtx); err == nil {
			err = serr
		}
		return err
	case <-ctx.Done():
		stop()
		fmt.Println("nfvmcastd: draining (signal received)")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		<-errCh
		fmt.Println("nfvmcastd: drained, state snapshotted, logs closed")
		return nil
	}
}
