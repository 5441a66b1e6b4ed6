// Package daemon is the process handling the smoke tests under
// scripts/ share: reserve a loopback port, launch a horamd and wait
// until it listens, stop it with SIGTERM.
package daemon

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// FreePort asks the kernel for a free loopback port.
func FreePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close() //horam:errok the listener existed only to reserve a free port
	return addr, nil
}

// Start launches bin with args — which must carry "-addr <host:port>"
// — and waits until it accepts connections there.
func Start(bin string, args ...string) (*exec.Cmd, error) {
	var addr string
	for i := 0; i+1 < len(args); i++ {
		if args[i] == "-addr" {
			addr = args[i+1]
		}
	}
	if addr == "" {
		return nil, fmt.Errorf("daemon.Start: no -addr among %q", args)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close() //horam:errok readiness probe; the connection carried no requests
			return cmd, nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	cmd.Process.Kill()
	return nil, fmt.Errorf("horamd never started listening on %s", addr)
}

// Stop sends SIGTERM and waits for a clean exit; name labels the
// process in the error.
func Stop(name string, cmd *exec.Cmd) error {
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("%s: SIGTERM: %w", name, err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("%s: exit: %w", name, err)
		}
		return nil
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		return fmt.Errorf("%s did not exit within 30s of SIGTERM", name)
	}
}
