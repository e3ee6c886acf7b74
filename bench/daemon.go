package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
)

// daemon is one in-process meshsortd: the configuration of
// `meshsortd -store DIR` with default flags, behind a real loopback
// listener, with logs formatted by a text handler into io.Discard.
type daemon struct {
	dir    string
	st     *store.Store
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

// startDaemon opens the store in dir and serves it on a loopback port.
// Its client keeps at most clients connections, one per load goroutine.
func startDaemon(dir string) (*daemon, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Config{
		Store:  st,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		st.Close()
		return nil, err
	}
	d := &daemon{
		dir:    dir,
		st:     st,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon the way meshsortd does on SIGTERM, closes the
// listener and then the store, and waits for the serve goroutine.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.srv.Drain(ctx)
	if err != nil {
		d.srv.Close()
	}
	// The transport may hold a dialed but never used connection, which
	// Shutdown would wait five seconds for; close it from this side first.
	d.client.CloseIdleConnections()
	if serr := d.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-d.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	if serr := d.st.Close(); err == nil {
		err = serr
	}
	return err
}

// restart stops the daemon and starts a fresh one on the same store.
func (d *daemon) restart() error {
	if err := d.stop(); err != nil {
		return err
	}
	nd, err := startDaemon(d.dir)
	if err != nil {
		return err
	}
	*d = *nd
	return nil
}

// response is one HTTP exchange as the client saw it.
type response struct {
	status int
	cache  string // X-Meshsort-Cache
	body   []byte
}

// do sends one request and reads the whole body.
func (d *daemon) do(method, path string, body []byte) (response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return response{}, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return response{status: resp.StatusCode, cache: resp.Header.Get("X-Meshsort-Cache"), body: buf}, nil
}

// scrape reads /metrics into a map from series (name plus labels) to
// value.
func (d *daemon) scrape() (map[string]float64, error) {
	r, err := d.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", r.status)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(r.body), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, fmt.Errorf("GET /metrics: %q: %w", line, err)
			}
			out[f[0]] = v
		}
	}
	return out, nil
}
