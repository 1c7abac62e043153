package portal

import (
	"html/template"
	"net/http"
	"sync"

	"github.com/crowdml/crowdml/internal/hub"
)

// Index is the multi-task Web portal of the paper's Section V-A: the
// front page lists every crowd-learning task hosted on the hub so
// prospective participants can browse and pick one; each task links to
// its full transparency page (objective, collected data, algorithm,
// privacy budget, live DP statistics). It lists hub.Hosted and serves
// hub.Resolve, so a sharded logical task is one task here like anywhere
// else.
//
// Routes (relative to wherever the Index is mounted):
//
//	GET /              — task listing
//	GET /tasks/{task}  — one task's detail page
type Index struct {
	hub *hub.Hub
	mux *http.ServeMux

	mu    sync.Mutex
	pages map[string]taskPage // lazily created per-task detail pages
}

// taskPage is a cached detail page and the hub entry it was built for —
// a task re-created under the same ID gets a fresh page.
type taskPage struct {
	*Portal
	of hub.Entry
}

var _ http.Handler = (*Index)(nil)

// NewIndex builds the portal index for a hub.
func NewIndex(h *hub.Hub) *Index {
	idx := &Index{hub: h, mux: http.NewServeMux(), pages: make(map[string]taskPage)}
	idx.mux.HandleFunc("GET /{$}", idx.handleIndex)
	idx.mux.HandleFunc("GET /tasks/{task}", idx.handleTask)
	return idx
}

// ServeHTTP implements http.Handler.
func (i *Index) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	i.mux.ServeHTTP(w, r)
}

// indexRow is one task entry in the listing's view model.
type indexRow struct {
	ID            string
	Name          string
	Algorithm     string
	Iteration     int
	Stopped       bool
	HasEstimate   bool
	ErrorEstimate float64
}

func (i *Index) handleIndex(w http.ResponseWriter, r *http.Request) {
	hosted := i.hub.Hosted()
	// Prune detail pages for tasks that have been closed, so task churn
	// does not grow the page cache without bound.
	live := make(map[string]bool, len(hosted))
	rows := make([]indexRow, 0, len(hosted))
	for _, e := range hosted {
		live[e.ID()] = true
		info, p := e.Info(), e.Progress()
		rows = append(rows, indexRow{
			ID:            e.ID(),
			Name:          info.Name,
			Algorithm:     info.Algorithm,
			Iteration:     p.Iteration,
			Stopped:       p.Stopped,
			HasEstimate:   p.HasError,
			ErrorEstimate: p.ErrorEstimate,
		})
	}
	i.mu.Lock()
	for id := range i.pages {
		if !live[id] {
			delete(i.pages, id)
		}
	}
	i.mu.Unlock()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := indexTemplate.Execute(w, rows); err != nil {
		return
	}
}

func (i *Index) handleTask(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("task")
	e, err := i.hub.Resolve(id)
	i.mu.Lock()
	page, ok := i.pages[id]
	switch {
	case err != nil:
		delete(i.pages, id) // the task may have been closed
	case !ok || page.of != e:
		page = taskPage{New(e.Progress, e.Info()), e}
		i.pages[id] = page
	}
	i.mu.Unlock()
	if err != nil {
		http.Error(w, "task not found", http.StatusNotFound)
		return
	}
	page.ServeHTTP(w, r)
}

var indexTemplate = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html>
<head><title>Crowd-ML tasks</title>
<style>
 body { font-family: sans-serif; max-width: 48rem; margin: 2rem auto; }
 table { border-collapse: collapse; width: 100%; }
 td, th { text-align: left; padding: .3rem .8rem .3rem 0; border-bottom: 1px solid #ddd; }
 .muted { color: #666; }
</style>
</head>
<body>
<h1>Crowd-ML learning tasks</h1>
{{if .}}
<table>
<tr><th>Task</th><th>Algorithm</th><th>Iteration</th><th>Error est.</th><th>Status</th></tr>
{{range .}}<tr>
 <td><a href="tasks/{{.ID}}">{{.Name}}</a></td>
 <td>{{.Algorithm}}</td>
 <td>{{.Iteration}}</td>
 <td>{{if .HasEstimate}}{{printf "%.3f" .ErrorEstimate}}{{else}}–{{end}}</td>
 <td>{{if .Stopped}}completed{{else}}recruiting{{end}}</td>
</tr>
{{end}}</table>
{{else}}
<p class="muted">No tasks are currently hosted.</p>
{{end}}
</body>
</html>
`))
