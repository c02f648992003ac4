package faultnet

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// echoServer answers every line with prefix+line. Returns its address and
// a stop function.
func echoServer(t *testing.T, prefix string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(c net.Conn) {
				defer wg.Done()
				defer c.Close()
				sc := bufio.NewScanner(c)
				for sc.Scan() {
					fmt.Fprintf(c, "%s%s\n", prefix, sc.Text())
				}
			}(c)
		}
	}()
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	return ln.Addr().String()
}

func startProxy(t *testing.T, cfg Config) *Proxy {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// roundTrip sends one line through c and returns the reply (or error).
func roundTrip(c net.Conn, line string) (string, error) {
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := fmt.Fprintf(c, "%s\n", line); err != nil {
		return "", err
	}
	r := bufio.NewReader(c)
	s, err := r.ReadString('\n')
	return strings.TrimSuffix(s, "\n"), err
}

func TestProxyForwards(t *testing.T) {
	target := echoServer(t, "echo:")
	p := startProxy(t, Config{Target: target})
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := roundTrip(c, "hello")
	if err != nil || got != "echo:hello" {
		t.Fatalf("roundTrip = %q, %v", got, err)
	}
	st := p.Stats()
	if st.Accepted != 1 || st.BytesUp == 0 || st.BytesDn == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProxyResetAllCutsLiveConnections(t *testing.T) {
	target := echoServer(t, "")
	p := startProxy(t, Config{Target: target})
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := roundTrip(c, "warm"); err != nil {
		t.Fatal(err)
	}
	if n := p.ResetAll(); n != 1 {
		t.Fatalf("ResetAll cut %d links", n)
	}
	// The cut surfaces as an error on the next exchange (possibly after
	// one buffered success).
	var rtErr error
	for i := 0; i < 5 && rtErr == nil; i++ {
		_, rtErr = roundTrip(c, "after-reset")
	}
	if rtErr == nil {
		t.Fatal("connection survived ResetAll")
	}
	if st := p.Stats(); st.Resets != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProxySetTargetSwitchesBackend(t *testing.T) {
	a := echoServer(t, "a:")
	b := echoServer(t, "b:")
	p := startProxy(t, Config{Target: a})
	c1, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if got, _ := roundTrip(c1, "x"); got != "a:x" {
		t.Fatalf("before retarget: %q", got)
	}
	p.SetTarget(b)
	c2, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got, _ := roundTrip(c2, "x"); got != "b:x" {
		t.Fatalf("after retarget: %q", got)
	}
}

func TestProxyCloseIdempotent(t *testing.T) {
	target := echoServer(t, "")
	p, err := New(Config{Target: target})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestProxyRequiresTarget(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("proxy started without a target")
	}
}
