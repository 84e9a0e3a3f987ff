package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"strings"
)

// manifest describes the host and inputs of one run, so every number can be
// traced back to what produced it.
type manifest struct {
	Rev        string  `json:"git_rev"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPU        string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	ConfigHash string  `json:"config_sha256"`
}

func newManifest(rev, name string, o options, configHash string) manifest {
	return manifest{
		Rev: rev, GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPU: cpuModel(), NProc: runtime.NumCPU(),
		Workload: name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace, ConfigHash: configHash,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo; hosts without it
// report "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// configHash is the sha256 of a workload configuration's JSON encoding: two
// runs with equal hashes generated their inputs from equal parameters.
func configHash(cfg any) (string, error) {
	b, err := json.Marshal(cfg)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
