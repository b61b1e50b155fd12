package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"strings"
	"testing"
)

// runStdout runs the CLI with args and returns what it printed to stdout.
func runStdout(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = saved }()
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := run(args)
	w.Close()
	text := <-out
	if runErr != nil {
		t.Fatalf("qgj %v: %v", args, runErr)
	}
	return text
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestCampaignFShardsByDefault: campaign F needs a fresh device per unit,
// so without -workers it still runs sharded, attaches its fault engine and
// prints the verdicts and the fault-resilience table, exactly as -workers 1
// does.
func TestCampaignFShardsByDefault(t *testing.T) {
	args := []string{"-app", "com.heartwatch.wear", "-campaign", "F", "-quick", "20", "-progress", "0"}
	out := runStdout(t, args...)
	for _, want := range []string{"6 fault verdicts", "fault resilience", "svc-kill         com.heartwatch.wear"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	const pinned = "2a19522f17d95a15c18431172a9f9df846a0de379c06cc2703913d5589f304af"
	if got := sha256Hex(out); got != pinned {
		t.Errorf("stdout sha256 = %s, want %s:\n%s", got, pinned, out)
	}
	if one := runStdout(t, append(args, "-workers", "1")...); one != out {
		t.Errorf("-workers 1 differs from the default:\n%s\n---\n%s", one, out)
	}
}

// TestStdoutPinned pins qgj's stdout for the aging path (per-app summary
// lines), the component list and the sharded path. The full-scale
// com.motorola.omni run reboots the watch during campaign A, so it covers
// aging carried across campaigns.
func TestStdoutPinned(t *testing.T) {
	cases := []struct {
		name string
		args []string
		sha  string
		full bool
		want string
	}{
		{
			name: "aging-quick8",
			args: []string{"-app", "com.heartwatch.wear", "-all", "-quick", "8", "-progress", "0"},
			sha:  "1c82553de2753e870c0365761588362e91d0b7394f2f66282a4a9c2dfb770b79",
			want: "com.heartwatch.wear campaign D: sent=156 ",
		},
		{
			name: "list",
			args: []string{"-list"},
			sha:  "f7106c8f319b70c491aadfe3054e4e2438cfffaabd059c19702cfa6e41b54ec2",
			want: "\n912 components\n",
		},
		{
			name: "sharded-workers4",
			args: []string{"-app", "com.heartwatch.wear", "-all", "-quick", "8", "-progress", "0", "-workers", "4"},
			sha:  "bc31054577c74f2a0ac40aede80e8be4c35bc8fde81c91ce60edd777535317fe",
			want: "farm: 4 shards, 4 workers, 1008 intents\n",
		},
		{
			name: "aging-full-omni",
			args: []string{"-app", "com.motorola.omni", "-all", "-progress", "0"},
			sha:  "1eee837b9a49c6c9fc49b96fdc1480fa20f22a136dae8edb8cf30fa1236f085f",
			full: true,
			want: " reboot=1\ncom.motorola.omni campaign B:",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.full && testing.Short() {
				t.Skip("full-scale campaign")
			}
			out := runStdout(t, tc.args...)
			if !strings.Contains(out, tc.want) {
				t.Errorf("output lacks %q", tc.want)
			}
			if got := sha256Hex(out); got != tc.sha {
				if len(out) > 2000 {
					out = out[:2000] + "…"
				}
				t.Errorf("stdout sha256 = %s, want %s:\n%s", got, tc.sha, out)
			}
		})
	}
}
