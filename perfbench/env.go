package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// environment records what a result was measured on.
func environment(name string, cfg config) map[string]any {
	return map[string]any{
		"workload":      name,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"go_version":    runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"wal_fs":        filesystem(cfg.work),
		"transport":     fmt.Sprintf("HTTP/1.1 keep-alive over loopback TCP (127.0.0.1), %d connections", clients),
		"commit":        commit(),
		"source_sha256": sourceDigest("."),
		"clients":       clients,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// filesystem names the filesystem holding dir, from its statfs magic.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("%#x", st.Type)
}

// commit is the VCS revision stamped into the build, when the source
// tree was a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown (not built from a repository)"
}

// sourceDigest hashes the program's Go sources and go.mod under root,
// so a result names the code it measured even without a repository.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, filepath.ToSlash(p)+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuTimes is a reading of the VM's cumulative CPU times from
// /proc/stat (jiffies, summed over CPUs).
type cpuTimes struct {
	total, idle, steal uint64
	ok                 bool
}

func readCPU() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var c cpuTimes
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		c.total += v
		switch i {
		case 3, 4: // idle, iowait
			c.idle += v
		case 7:
			c.steal = v
		}
	}
	c.ok = true
	return c
}

// stolenBetween returns the share of the VM's runnable CPU time that
// the hypervisor stole between readings a and b: steal / (busy +
// steal). It is 0 where /proc/stat could not be read.
func stolenBetween(a, b cpuTimes) float64 {
	if !a.ok || !b.ok {
		return 0
	}
	runnable := (b.total - a.total) - (b.idle - a.idle)
	if runnable == 0 {
		return 0
	}
	return float64(b.steal-a.steal) / float64(runnable)
}
