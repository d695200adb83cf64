package main

import (
	"crypto/rand"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"icc/internal/crypto/keys"
)

// TestRunRefusesBadConfig drives run on key material dealt for four
// parties under the multisig scheme: each command line below is refused
// at start-up, with an error naming what is wrong, before any socket is
// opened.
func TestRunRefusesBadConfig(t *testing.T) {
	dir := t.TempDir()
	pub, privs, err := keys.Deal(rand.Reader, 4)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, v interface{}) {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	write("public.json", pub)
	for i := range privs {
		write(fmt.Sprintf("party%d.json", i), &privs[i])
	}

	const peers = "127.0.0.1:1,127.0.0.1:2,127.0.0.1:3,127.0.0.1:4"
	for _, tc := range []struct {
		name string
		edit func(*nodeConfig)
		want string
	}{
		{"self out of range", func(c *nodeConfig) { c.self = 4 }, "-self 4 out of range"},
		{"peer count", func(c *nodeConfig) { c.peers = "127.0.0.1:1,127.0.0.1:2,127.0.0.1:3" }, "-peers lists 3 addresses"},
		{"unknown mode", func(c *nodeConfig) { c.mode = "icc3" }, "-mode"},
		{"cert scheme", func(c *nodeConfig) { c.certScheme = "bls" }, "-cert-scheme bls"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := nodeConfig{keyDir: dir, self: 0, peers: peers, mode: "icc0", quiet: true}
			tc.edit(&cfg)
			err := run(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
