// Command rtmdm-lint runs the repo's custom static analyzers
// (internal/lint) over the module: determinism, millitime, hotpathalloc,
// metricname, ctxflow, lockhold and goroleak. See
// docs/STATIC_ANALYSIS.md for the catalogue, the cross-package fact
// mechanism, and the //lint:allow suppression directive.
//
// Usage:
//
//	rtmdm-lint [-list] [-format text|json|sarif] [-suppressions] [packages|dirs]
//
// Arguments are either the "./..." pattern (the default — every package
// of the enclosing module) or directory paths, which are loaded without
// the go tool so testdata fixture packages can be linted too. Module
// packages are analyzed in dependency order with one shared fact store,
// so downstream packages see the facts (blocking, ambient-context,
// non-terminating) their imports exported. The determinism analyzer is
// scoped to the simulation-path packages and ctxflow to the service
// tier; the rest run everywhere. Directory arguments run the full
// suite, and a directory's immediate subdirectories are loaded first as
// dependency packages, so fixture trees exercise cross-package facts.
//
// -format selects the findings encoding: text (default,
// file:line:col: [analyzer] message), json (a stable sorted object),
// or sarif (SARIF 2.1.0, consumed by the CI upload that annotates PRs).
// -suppressions audits every //lint:allow directive in the module
// instead of linting: each is listed with its file, analyzer and
// reason, and a directive with an empty or missing reason fails the
// audit.
//
// The command is also usable as a vet tool:
//
//	go vet -vettool=$(command -v rtmdm-lint) ./...
//
// in which case it speaks the vet driver protocol (-V=full handshake,
// JSON config file) and persists each package's facts in its .vetx
// file, reading imports' facts back from theirs.
//
// Exit status: 0 when clean, 1 on findings, audit failures, or load
// errors.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"rtmdm/internal/lint"
)

// simPathSuffixes are the packages whose execution model must be
// deterministic: the kernel, the executor and everything that feeds the
// result tables. The determinism analyzer is enforced only here;
// harness-side packages (plot, cmd) may read clocks.
var simPathSuffixes = []string{
	"internal/sim", "internal/exec", "internal/core", "internal/trace",
	"internal/expr", "internal/workload", "internal/fault",
	"internal/scenario", "internal/dse", "internal/corpus",
}

// ctxPathSuffixes are the service-tier packages whose request paths
// must thread the incoming context (docs/SERVER.md, docs/CLUSTER.md).
// ctxflow is enforced only here; cmd mains legitimately construct their
// own root contexts.
var ctxPathSuffixes = []string{
	"internal/server", "internal/cluster", "internal/httpsvc",
}

func hasPathSuffix(importPath string, suffixes []string) bool {
	for _, s := range suffixes {
		if importPath == s || strings.HasSuffix(importPath, "/"+s) {
			return true
		}
	}
	return false
}

func isSimPath(importPath string) bool { return hasPathSuffix(importPath, simPathSuffixes) }
func isCtxPath(importPath string) bool { return hasPathSuffix(importPath, ctxPathSuffixes) }

func main() {
	os.Exit(run())
}

func run() int {
	list := flag.Bool("list", false, "print the analyzer catalogue and exit")
	format := flag.String("format", "text", "findings encoding: text, json, or sarif")
	suppressions := flag.Bool("suppressions", false, "audit //lint:allow directives instead of linting")
	vFlag := flag.String("V", "", "vet driver handshake (-V=full)")
	flagsQuery := flag.Bool("flags", false, "vet driver flag query (prints an empty set)")
	flag.Parse()

	if *vFlag != "" {
		// go vet's tool-ID handshake: the go command derives the tool's
		// build ID from this line and requires a buildID=<hex> field, so
		// hash the executable the way x/tools' analysisflags does.
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "rtmdm-lint:", err)
			return 1
		}
		data, err := os.ReadFile(exe)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rtmdm-lint:", err)
			return 1
		}
		fmt.Printf("%s version devel comments-go-here buildID=%02x\n",
			filepath.Base(exe), sha256.Sum256(data))
		return 0
	}
	if *flagsQuery {
		// The vet driver's flag-definition query: a JSON array; this
		// tool exposes no per-analyzer flags.
		fmt.Println("[]")
		return 0
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, firstLine(a.Doc))
		}
		return 0
	}
	if *suppressions {
		return runSuppressionAudit()
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return runVetTool(args[0])
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	return runStandalone(args, *format)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// finding is one rendered diagnostic, with the file path relative to
// the module root when possible so json/sarif output is stable across
// checkouts.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func runStandalone(args []string, format string) int {
	switch format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(os.Stderr, "rtmdm-lint: unknown -format %q (want text, json, or sarif)\n", format)
		return 1
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtmdm-lint:", err)
		return 1
	}
	lint.MetricCatalog, err = loadCatalog(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtmdm-lint:", err)
		return 1
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtmdm-lint:", err)
		return 1
	}

	store := lint.NewFactStore(lint.All())
	var findings []finding
	for _, arg := range args {
		switch {
		case arg == "./...":
			// Dependency order: every package is analyzed after its
			// imports, so the fact store always holds upstream facts.
			for _, path := range loader.RootsTopo() {
				pkg, err := loader.LoadImportPath(path)
				if err != nil {
					fmt.Fprintln(os.Stderr, "rtmdm-lint:", err)
					return 1
				}
				fs, err := collect(root, pkg, store, keepFor(path))
				if err != nil {
					fmt.Fprintln(os.Stderr, "rtmdm-lint:", err)
					return 1
				}
				findings = append(findings, fs...)
			}
		case isDir(arg):
			// Directory mode: load without the go tool (works for
			// testdata fixtures) and run the full suite. Immediate
			// subdirectories load first as dependency packages.
			abs, err := filepath.Abs(arg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rtmdm-lint:", err)
				return 1
			}
			base := "rtmdm-lint-fixture/" + filepath.Base(abs)
			for _, dir := range fixtureDirs(abs) {
				importPath := base
				if dir != abs {
					importPath = base + "/" + filepath.Base(dir)
				}
				pkg, err := loader.LoadDir(importPath, dir)
				if err != nil {
					fmt.Fprintln(os.Stderr, "rtmdm-lint:", err)
					return 1
				}
				fs, err := collect(root, pkg, store, nil)
				if err != nil {
					fmt.Fprintln(os.Stderr, "rtmdm-lint:", err)
					return 1
				}
				findings = append(findings, fs...)
			}
		default:
			fmt.Fprintf(os.Stderr, "rtmdm-lint: unsupported argument %q (use ./... or a directory path)\n", arg)
			return 1
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})

	switch format {
	case "json":
		emitJSON(findings)
	case "sarif":
		emitSARIF(findings)
	default:
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "rtmdm-lint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// fixtureDirs returns the package directories to load for one
// directory argument: immediate subdirectories holding Go files first
// (dependency packages, sorted), then the directory itself.
func fixtureDirs(abs string) []string {
	var deps []string
	if ents, err := os.ReadDir(abs); err == nil {
		for _, e := range ents {
			if !e.IsDir() {
				continue
			}
			sub := filepath.Join(abs, e.Name())
			if hasGoFiles(sub) {
				deps = append(deps, sub)
			}
		}
	}
	sort.Strings(deps)
	return append(deps, abs)
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// keepFor scopes reporting per package: determinism on the simulation
// path, ctxflow on the service tier, everything else everywhere. All
// analyzers still run on every package so their facts are available
// downstream.
func keepFor(importPath string) func(*lint.Analyzer) bool {
	return func(a *lint.Analyzer) bool {
		switch a {
		case lint.Determinism:
			return isSimPath(importPath)
		case lint.CtxFlow:
			return isCtxPath(importPath)
		default:
			return true
		}
	}
}

// collect runs the suite over one package and renders the diagnostics.
func collect(root string, pkg *lint.Package, store *lint.FactStore, keep func(*lint.Analyzer) bool) ([]finding, error) {
	diags, err := lint.RunAllWith(lint.All(), pkg, store, keep)
	if err != nil {
		return nil, err
	}
	var out []finding
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		out = append(out, finding{
			File:     relPath(root, pos.Filename),
			Line:     pos.Line,
			Col:      pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	return out, nil
}

// relPath renders file relative to the module root (slash-separated)
// when it lives under it, keeping json/sarif output checkout-agnostic.
func relPath(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return file
}

func emitJSON(findings []finding) {
	if findings == nil {
		findings = []finding{}
	}
	out, _ := json.MarshalIndent(map[string]any{
		"findings": findings,
		"count":    len(findings),
	}, "", "  ")
	fmt.Println(string(out))
}

// SARIF 2.1.0 structures — only the fields the upload consumes.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}
type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}
type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}
type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri"`
	Rules          []sarifRule `json:"rules"`
}
type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}
type sarifMessage struct {
	Text string `json:"text"`
}
type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}
type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}
type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}
type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}
type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

func emitSARIF(findings []finding) {
	var rules []sarifRule
	for _, a := range lint.All() {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: firstLine(a.Doc)}})
	}
	results := []sarifResult{}
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: f.File, URIBaseID: "%SRCROOT%"},
				Region:           sarifRegion{StartLine: f.Line, StartColumn: f.Col},
			}}},
		})
	}
	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "rtmdm-lint", InformationURI: "https://github.com/rtmdm/rtmdm/blob/main/docs/STATIC_ANALYSIS.md", Rules: rules}},
			Results: results,
		}},
	}
	out, _ := json.MarshalIndent(log, "", "  ")
	fmt.Println(string(out))
}

// runSuppressionAudit lists every //lint:allow directive in the module
// with its file, analyzer and reason, one per stdout line, sorted. A
// malformed directive — empty or missing reason — is an audit failure:
// the written reason is what makes the suppression inventory
// reviewable. Exit 0 on a clean audit, 1 otherwise.
func runSuppressionAudit() int {
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtmdm-lint:", err)
		return 1
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtmdm-lint:", err)
		return 1
	}
	type entry struct {
		file     string
		line     int
		analyzer string
		reason   string
	}
	var entries []entry
	bad := 0
	for _, path := range loader.Roots() {
		pkg, err := loader.LoadImportPath(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rtmdm-lint:", err)
			return 1
		}
		ok, malformed := lint.Suppressions(pkg)
		for _, s := range ok {
			entries = append(entries, entry{file: relPath(root, s.File), line: s.Line, analyzer: s.Analyzer, reason: s.Reason})
		}
		for _, d := range malformed {
			pos := pkg.Fset.Position(d.Pos)
			fmt.Fprintf(os.Stderr, "rtmdm-lint: %s:%d: suppression without a reason: %s\n",
				relPath(root, pos.Filename), pos.Line, d.Message)
			bad++
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].file != entries[j].file {
			return entries[i].file < entries[j].file
		}
		return entries[i].line < entries[j].line
	})
	for _, e := range entries {
		fmt.Printf("%s:%d: %s -- %s\n", e.file, e.line, e.analyzer, e.reason)
	}
	fmt.Fprintf(os.Stderr, "rtmdm-lint: %d audited suppression(s), %d malformed\n", len(entries), bad)
	if bad > 0 {
		return 1
	}
	return 0
}

func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

// moduleRoot locates the enclosing module: `go env GOMOD` first, then a
// go.mod walk from the working directory.
func moduleRoot() (string, error) {
	if out, err := exec.Command("go", "env", "GOMOD").Output(); err == nil {
		gomod := strings.TrimSpace(string(out))
		if gomod != "" && gomod != os.DevNull {
			return filepath.Dir(gomod), nil
		}
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// metricNameRe mirrors docsync_test.go: backticked dotted identifiers in
// the instrumented-package namespaces.
var metricNameRe = regexp.MustCompile("`((?:sim|exec|dse|expr|workload|server|analysis|gateway|cluster|corpus)\\.[a-z0-9_]+)`")

// loadCatalog parses the metric catalogue out of docs/OBSERVABILITY.md.
func loadCatalog(root string) (map[string]bool, error) {
	doc, err := os.ReadFile(filepath.Join(root, "docs", "OBSERVABILITY.md"))
	if err != nil {
		return nil, fmt.Errorf("loading metric catalogue: %w", err)
	}
	cat := map[string]bool{}
	for _, m := range metricNameRe.FindAllStringSubmatch(string(doc), -1) {
		cat[m[1]] = true
	}
	return cat, nil
}
