package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"focus/internal/assembly"
	"focus/internal/dist"
)

// fleet is a worker pool plus a count of the bytes its connections carry
// (worker side, both directions).
type fleet struct {
	pool  *dist.Pool
	wire  atomic.Int64
	srvs  []*dist.Server
	serve sync.WaitGroup
}

// countConn counts the bytes read and written on a connection.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.Add(int64(n))
	return n, err
}

func (c countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// countListener wraps every accepted connection in a countConn.
type countListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countConn{c, l.n}, nil
}

// newLocalFleet starts n in-process workers; Options.WrapConn counts their
// wire bytes.
func newLocalFleet(n int) (*fleet, error) {
	f := &fleet{}
	opt := dist.Options{WrapConn: func(_ int, c net.Conn) net.Conn { return countConn{c, &f.wire} }}
	pool, err := dist.NewLocalPoolOpts(n, assembly.NewService, opt)
	if err != nil {
		return nil, err
	}
	f.pool = pool
	return f, nil
}

// newTCPFleet starts n worker servers on loopback listeners (the body of
// cmd/focus-worker) and dials them.
func newTCPFleet(n int) (*fleet, error) {
	f := &fleet{}
	var addrs []string
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		srv, err := dist.NewServer(assembly.NewService())
		if err != nil {
			lis.Close()
			f.close()
			return nil, err
		}
		f.srvs = append(f.srvs, srv)
		addrs = append(addrs, lis.Addr().String())
		f.serve.Add(1)
		go func() {
			defer f.serve.Done()
			if err := srv.Serve(countListener{lis, &f.wire}); err != nil && !errors.Is(err, dist.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "e2ebench: worker %s: %v\n", lis.Addr(), err)
			}
		}()
	}
	pool, err := dist.DialPool(addrs)
	if err != nil {
		f.close()
		return nil, err
	}
	f.pool = pool
	return f, nil
}

// close stops the pool, then the worker servers, and waits for them.
func (f *fleet) close() {
	if f.pool != nil {
		f.pool.Close()
	}
	for _, s := range f.srvs {
		s.Shutdown(time.Second)
	}
	f.serve.Wait()
}

// faults is the fleet's eviction, reconnect and kick total.
func (f *fleet) faults() int64 {
	h := f.pool.Health()
	return h.Evictions + h.Reconnects + h.Kicks
}
