package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Fingerprint identifies the host and the code a result set came from.
// Two sets compare only as a same-host before/after pair when every
// host field agrees; Commit and SourceDigest are expected to differ.
type Fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	// Commit is the git HEAD of the tree when it is a git checkout,
	// "unknown" otherwise.
	Commit string `json:"commit"`
	// SourceDigest hashes every .go and go.mod file of the tree, so a
	// tree without git metadata is still identified.
	SourceDigest string `json:"source_digest"`
}

func (f Fingerprint) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s arch=%s cpu=%q commit=%s source=%s",
		f.NumCPU, f.GOMAXPROCS, f.GoVersion, f.GOARCH, f.CPUModel, f.Commit, f.SourceDigest)
}

// host is the part of the fingerprint that must match for two result
// sets to be a same-host pair.
func (f Fingerprint) host() string {
	f.Commit, f.SourceDigest = "", ""
	return f.String()
}

func fingerprint(root string) Fingerprint {
	return Fingerprint{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GOARCH:       runtime.GOARCH,
		CPUModel:     cpuModel(),
		Commit:       gitCommit(filepath.Join(root, ".git")),
		SourceDigest: sourceDigest(root),
	}
}

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

// gitCommit resolves HEAD from the git directory without running git.
func gitCommit(gitDir string) string {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest is an FNV-1a hash over the paths and contents of every
// .go and go.mod file under root, skipping hidden directories (git
// metadata, build output).
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := fnv.New64a()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
