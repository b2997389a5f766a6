package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"obddopt"
	"obddopt/internal/cache"
)

// service is the solve service under test, served in-process on a
// loopback listener, and the typed client talking to it.
type service struct {
	srv       *obddopt.Server
	hs        *http.Server
	serveErr  chan error
	transport *http.Transport
	client    *obddopt.Client
}

// startService boots a server with cfg. In a traced run its solver
// events go to the run's event sink and every request's handler time is
// recorded as a span.
func startService(ctx context.Context, cfg obddopt.ServerConfig, e *env) (*service, error) {
	if e.events != nil {
		cfg.Trace = e.events
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		srv:       obddopt.NewServer(context.Background(), cfg),
		serveErr:  make(chan error, 1),
		transport: &http.Transport{MaxIdleConnsPerHost: 2},
	}
	h := s.srv.Handler()
	if e.tracer != nil {
		h = e.tracer.wrap(h)
	}
	s.hs = &http.Server{Handler: h}
	go func() { s.serveErr <- s.hs.Serve(ln) }()
	s.client, err = obddopt.DialWithClient(ctx, "http://"+ln.Addr().String(), &http.Client{Transport: s.transport})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("dialing the service: %w", err)
	}
	return s, nil
}

// close shuts the listener and the server down and waits for both.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.transport.CloseIdleConnections()
	_ = s.hs.Shutdown(ctx)
	if err := <-s.serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: serving: %v\n", err)
	}
	_ = s.srv.Drain(ctx)
}

// served is the part of an instance that owns a service.
type served struct{ svc *service }

func (s *served) cacheStats() cache.Stats { return s.svc.srv.CacheStats() }

func (s *served) close() { s.svc.close() }
