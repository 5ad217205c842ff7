package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"perflow/internal/serve"
	"perflow/internal/serve/store"
)

// runServe implements the "pflow serve" subcommand: the long-running
// analysis service. SIGINT/SIGTERM trigger a graceful drain — the listener
// stops accepting, queued and running jobs finish (up to -drain-timeout),
// then the process exits.
func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr          = fs.String("addr", ":7077", "listen address")
		shards        = fs.Int("shards", 1, "deprecated: multiplies -workers and -queue")
		workers       = fs.Int("workers", runtime.GOMAXPROCS(0), "analysis workers")
		queueDepth    = fs.Int("queue", 64, "queue depth across all tenants; submissions beyond it get 429")
		storeSpec     = fs.String("store", "memory", `result store: "memory", "disk:<dir>" (shared, survives restarts), or "chaos:seed=N,err=P,torn=P,lat=D:<inner>" (deterministic fault injection for resilience testing)`)
		cacheMB       = fs.Int("cache-mb", 64, "result store byte budget in MiB")
		authFile      = fs.String("auth-file", "", `tenant declarations JSON ({"tenants": [{"name", "key", "quota", "weight"}]}); empty disables auth`)
		auditInterval = fs.Duration("audit-interval", 0, "background audit period re-executing sampled cached entries (0 disables)")
		auditSample   = fs.Int("audit-sample", 8, "cached entries re-executed per audit cycle")
		jobTimeout    = fs.Duration("job-timeout", 60*time.Second, "per-job run timeout (requests may only lower it)")
		drainTimeout  = fs.Duration("drain-timeout", 30*time.Second, "how long a shutdown waits for in-flight jobs")
		pprofOn       = fs.Bool("pprof", false, "mount /debug/pprof/ handlers")
		journalDir    = fs.String("journal", "", "write-ahead job journal directory: accepted jobs are durable before they are acknowledged, and a restart over the same directory replays every incomplete job (empty disables)")
		retryMax      = fs.Int("retry-max", 3, "total execution attempts per job (first run plus transient-failure retries)")
		breakerN      = fs.Int("breaker-threshold", 5, "consecutive store failures that trip the circuit breaker into degraded in-memory fallback mode")
		breakerWait   = fs.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker waits before probing the store again")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: pflow serve [-addr :7077] [-workers N] [-queue N] [-store memory|disk:DIR|chaos:...:DIR] [-cache-mb N] [-journal DIR] [-retry-max N] [-breaker-threshold N] [-breaker-cooldown D] [-auth-file F] [-audit-interval D] [-job-timeout D] [-pprof]")
		// -shards stays parseable for old command lines but is not listed.
		listed := flag.NewFlagSet("serve", flag.ContinueOnError)
		fs.VisitAll(func(f *flag.Flag) {
			if f.Name != "shards" {
				listed.Var(f.Value, f.Name, f.Usage)
			}
		})
		listed.SetOutput(fs.Output())
		listed.PrintDefaults()
	}
	fs.Parse(args)
	// The deprecated -shards N keeps an old command line's totals, as
	// serve.Options.Shards does; folding it here lets the banner show them.
	if *shards > 1 {
		*workers *= *shards
		*queueDepth *= *shards
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "pflow serve:", err)
		os.Exit(1)
	}

	st, err := store.Open(*storeSpec, int64(*cacheMB)<<20)
	if err != nil {
		fail(err)
	}
	var tenants []serve.TenantConfig
	if *authFile != "" {
		tenants, err = serve.LoadAuthFile(*authFile)
		if err != nil {
			fail(err)
		}
	}

	srv, err := serve.NewServer(serve.Options{
		Workers:          *workers,
		QueueDepth:       *queueDepth,
		Store:            st,
		Tenants:          tenants,
		AuditInterval:    *auditInterval,
		AuditSample:      *auditSample,
		JobTimeout:       *jobTimeout,
		EnablePprof:      *pprofOn,
		JournalDir:       *journalDir,
		RetryMax:         *retryMax,
		BreakerThreshold: *breakerN,
		BreakerCooldown:  *breakerWait,
	})
	if err != nil {
		fail(err)
	}
	expvar.Publish("perflow_serve", srv.Metrics())
	if *journalDir != "" {
		if n := len(srv.RecoveredJobs()); n > 0 {
			fmt.Fprintf(os.Stderr, "pflow serve: replayed %d incomplete jobs from journal %s\n", n, *journalDir)
		}
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "pflow serve: listening on %s (%d workers, queue %d, store %s, %d tenants)\n",
		*addr, *workers, *queueDepth, *storeSpec, len(tenants))

	select {
	case err := <-errc:
		fail(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "pflow serve: draining...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "pflow serve: http shutdown:", err)
	}
	if err := srv.Drain(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "pflow serve: drain:", err)
	}
	fmt.Fprintln(os.Stderr, "pflow serve: bye")
}
