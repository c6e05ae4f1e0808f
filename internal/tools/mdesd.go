package tools

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mdes"
	"mdes/internal/cli"
	"mdes/internal/server"
)

// RunMDesd runs the mdesd daemon until SIGINT/SIGTERM, then shuts down
// gracefully: sheds new requests, finishes in-flight ones, drains every
// description version.
func RunMDesd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mdesd", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr     = fs.String("addr", "127.0.0.1:7077", "listen address (host:port; :0 picks a free port)")
		cacheDir = fs.String("cachedir", "", "compiled-description cache directory (empty: no cache)")
		cacheMax = fs.Int64("cache-max", 0, "cache size limit in bytes (0: unbounded)")
		checker  = fs.String("checker", "probeplan", "conflict checker backend: probeplan or automaton")
		inflight = fs.Int("max-inflight", 0, "per-tenant concurrent schedule requests (0: default 32)")
		queue    = fs.Int("queue-depth", 0, "per-tenant admission queue depth (0: default 64)")
		timeout  = fs.Duration("timeout", 0, "per-request admission+scheduling timeout (0: default 10s)")
		bodyMax  = fs.Int64("body-max", 0, "request body cap in bytes (0: default 8MiB)")
		par      = fs.Int("parallelism", 0, "goroutines per schedule batch (0: default 1)")
		grace    = fs.Duration("grace", 15*time.Second, "shutdown grace period")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	kind, err := mdes.ParseCheckerKind(*checker)
	if err != nil {
		return fmt.Errorf("%w\n%s", err, cli.FormatCheckerKinds())
	}
	cfg := server.Config{
		CacheDir:            *cacheDir,
		CacheMax:            *cacheMax,
		Checker:             kind,
		MaxInFlight:         *inflight,
		QueueDepth:          *queue,
		RequestTimeout:      *timeout,
		MaxBodyBytes:        *bodyMax,
		ScheduleParallelism: *par,
	}
	d, err := server.Start(*addr, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "mdesd: serving on http://%s (checker=%s cache=%q)\n", d.Addr, kind, *cacheDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	signal.Stop(sig)
	fmt.Fprintf(out, "mdesd: %s received, draining (grace %s)\n", s, *grace)
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(out, "mdesd: drained, bye")
	return nil
}
