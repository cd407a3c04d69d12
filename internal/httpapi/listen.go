package httpapi

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// ListenAndServe is the serving binaries' main loop. It binds addr and
// announces the bound address on stdout as "name: listening on HOST:PORT"
// (the contract harnesses using :0 parse to learn the port), runs start, if
// set, until it returns, and serves h until SIGINT or SIGTERM. Then it calls
// setDraining(true), so /readyz answers 503 and load balancers stop routing
// here, and shuts down gracefully, letting in-flight requests finish. A
// signal during start cancels its context.
func ListenAndServe(name, addr string, h http.Handler, setDraining func(bool), start func(context.Context) error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("%s: listening on %s\n", name, ln.Addr())
	os.Stdout.Sync() //nolint:errcheck

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if start != nil {
		if err := start(ctx); err != nil {
			ln.Close()
			return err
		}
	}
	hs := &http.Server{
		Handler: h,
		// Bound slow-loris headers and dead keepalives; no global write
		// timeout (large score batches stream for a while).
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(os.Stderr, "%s: draining (readyz now 503)\n", name)
	setDraining(true)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
