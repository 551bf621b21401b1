/*
 * The FCAT kernel's frame walk, in C.
 *
 * A port of the Python walk in repro/kernels/fcat.py (`_walk_frame`,
 * `_replay`, `_apply_removals` and the termination probe's walk), which
 * stays the reference: the two consume the session's generator
 * identically and give bit-identical results on every channel.  What
 * stays in Python is reached through two callbacks:
 *
 *   refill(need, &len)   a fresh uniform block by RankSource's refill
 *                        rule; returns the block, NULL on error;
 *   repair(counts, n, ranks, total)
 *                        resample_duplicate_slots over one frame's slot
 *                        segments, in place; 1 if anything changed, 0 if
 *                        not, -1 on error.
 *
 * Errors are sticky: a failed callback sets status -1, a failed
 * allocation -2, and the frame returns it.  A walk that has lost its
 * uniforms runs on to the end of the frame on 0.0 draws, which keep
 * every index in range; the caller discards the session.
 *
 * Layout.  The roster is `items` (active tag indices) with `where[tag]`
 * each one's position.  A record is an arena slice [count, n_parts,
 * parts...] whose count is its still-unknown participants; each one
 * holds the record in its pending list, a singly linked list of nodes in
 * append order.  Learning a tag detaches its list, and the cascade walks
 * detached lists from a LIFO stack.  Per-rank stamps, bumped once per
 * frame, stand in for the Python walk's frame set, last-event map and
 * cancel set.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
typedef int32_t i32;

typedef const double *(*refill_fn)(i64 need, i64 *len_out);
typedef int (*repair_fn)(const i64 *counts, i64 n_counts, i64 *ranks,
                         i64 total);

/* The counters Python reads back, by index (fcat.py names them). */
enum {
    ST_EMPTY,           /* this frame's empty slots */
    ST_COLLISION,       /* this frame's collision slots */
    ST_ACTIVE,          /* roster size */
    ST_LEARNED,         /* tags learned so far */
    ST_TRANSMISSIONS,   /* session totals from here on */
    ST_EMPTY_SLOTS,
    ST_SINGLETON_SLOTS,
    ST_COLLISION_SLOTS,
    ST_READ,
    ST_RESOLVED,
    N_STATS
};

typedef struct {
    i64 stats[N_STATS];
    int status;
    i64 lam;
    double crc_p, ack_p, unusable_p, capture_p;
    int draw_free;
    refill_fn refill;
    repair_fn repair;
    /* The uniform block (owned by Python) and the read position. */
    const double *buf;
    i64 pos, len;
    /* Roster and learned flags. */
    i32 *items, *where;
    unsigned char *learned;
    /* Records and pending lists. */
    i32 *arena;
    i64 arena_len, arena_cap;
    i64 *node_rec, *node_next;
    i64 n_nodes, nodes_cap;
    i64 *head, *tail;
    /* Per-rank frame stamps. */
    i32 stamp;
    i32 *seen, *cancelled;
    i64 *last_pos;
    /* Scratch. */
    i64 *ranks;
    i64 ranks_cap;
    i64 *record_counts;
    i64 record_counts_cap;
    i64 *segment;
    i32 *parts;
    i32 *removed;
    i64 n_removed;
    i64 *stack;
    i64 stack_len, stack_cap;
} Session;

/* Make room for `need` items of `size` bytes; 0, or -2 out of memory. */
static int grow(void **array, i64 *cap, i64 need, size_t size)
{
    if (need <= *cap)
        return 0;
    i64 cap2 = *cap ? *cap : 64;
    while (cap2 < need)
        cap2 *= 2;
    void *grown = realloc(*array, (size_t)cap2 * size);
    if (grown == NULL)
        return -2;
    *array = grown;
    *cap = cap2;
    return 0;
}

void fcat_free(Session *s)
{
    if (s == NULL)
        return;
    free(s->items);
    free(s->where);
    free(s->learned);
    free(s->arena);
    free(s->node_rec);
    free(s->node_next);
    free(s->head);
    free(s->tail);
    free(s->seen);
    free(s->cancelled);
    free(s->last_pos);
    free(s->ranks);
    free(s->record_counts);
    free(s->segment);
    free(s->parts);
    free(s->removed);
    free(s->stack);
    free(s);
}

Session *fcat_new(i64 n_tags, i64 lam, double crc_p, double ack_p,
                  double unusable_p, double capture_p, int draw_free,
                  refill_fn refill, repair_fn repair)
{
    Session *s = calloc(1, sizeof(Session));
    if (s == NULL)
        return NULL;
    size_t n = (size_t)(n_tags > 0 ? n_tags : 1);
    s->lam = lam;
    s->crc_p = crc_p;
    s->ack_p = ack_p;
    s->unusable_p = unusable_p;
    s->capture_p = capture_p;
    s->draw_free = draw_free;
    s->refill = refill;
    s->repair = repair;
    s->items = malloc(n * sizeof(i32));
    s->where = malloc(n * sizeof(i32));
    s->learned = calloc(n, 1);
    s->head = malloc(n * sizeof(i64));
    s->tail = malloc(n * sizeof(i64));
    s->seen = calloc(n, sizeof(i32));
    s->cancelled = calloc(n, sizeof(i32));
    s->last_pos = malloc(n * sizeof(i64));
    s->segment = malloc(n * sizeof(i64));
    s->parts = malloc(n * sizeof(i32));
    s->removed = malloc(n * sizeof(i32));
    if (!s->items || !s->where || !s->learned || !s->head || !s->tail
        || !s->seen || !s->cancelled || !s->last_pos || !s->segment
        || !s->parts || !s->removed) {
        fcat_free(s);
        return NULL;
    }
    for (i64 tag = 0; tag < n_tags; tag++) {
        s->items[tag] = (i32)tag;
        s->where[tag] = (i32)tag;
        s->head[tag] = -1;
        s->tail[tag] = -1;
    }
    s->stats[ST_ACTIVE] = n_tags;
    return s;
}

i64 *fcat_stats(Session *s)
{
    return s->stats;
}

/* Make `need` uniforms readable from s->pos: RankSource's refill rule. */
static int reserve(Session *s, i64 need)
{
    if (s->pos + need > s->len) {
        i64 len = 0;
        const double *buf = s->status ? NULL : s->refill(need, &len);
        if (buf == NULL) {
            s->status = -1;
            return -1;
        }
        s->buf = buf;
        s->len = len;
        s->pos = 0;
    }
    return 0;
}

/* One channel-outcome uniform (0.0 once the block is lost). */
static inline double uniform(Session *s)
{
    if (s->pos == s->len && reserve(s, 1))
        return 0.0;
    return s->buf[s->pos++];
}

/* Append arena record `rec` to `tag`'s pending list. */
static void enlist(Session *s, i32 tag, i64 rec)
{
    if (s->n_nodes == s->nodes_cap) {
        i64 cap = s->nodes_cap, next_cap = s->nodes_cap;
        if (grow((void **)&s->node_rec, &cap, s->n_nodes + 1, sizeof(i64))
            || grow((void **)&s->node_next, &next_cap, cap, sizeof(i64))) {
            s->status = -2;
            return;
        }
        s->nodes_cap = cap;
    }
    i64 node = s->n_nodes++;
    s->node_rec[node] = rec;
    s->node_next[node] = -1;
    if (s->head[tag] < 0)
        s->head[tag] = node;
    else
        s->node_next[s->tail[tag]] = node;
    s->tail[tag] = node;
}

/* Store a record over `k` unknown tags, registered under each of them. */
static void store_record(Session *s, const i32 *tags, i64 k)
{
    if (grow((void **)&s->arena, &s->arena_cap, s->arena_len + k + 2,
             sizeof(i32))) {
        s->status = -2;
        return;
    }
    i64 rec = s->arena_len;
    s->arena[rec] = (i32)k;
    s->arena[rec + 1] = (i32)k;
    memcpy(s->arena + rec + 2, tags, (size_t)k * sizeof(i32));
    s->arena_len += k + 2;
    for (i64 j = 0; j < k; j++)
        enlist(s, tags[j], rec);
}

/* Detach `tag`'s pending list; returns its first node or -1. */
static inline i64 detach(Session *s, i32 tag)
{
    i64 node = s->head[tag];
    s->head[tag] = -1;
    s->tail[tag] = -1;
    return node;
}

/* The state one frame's walk threads through its helpers. */
typedef struct {
    i64 end;         /* end of the current slot's rank segment */
    int has_dups;    /* some rank repeats: last_pos is meaningful */
    int cancel_any;  /* some rank's later transmissions are cancelled */
    i64 n_resolved;
} Walk;

/* Cancel `rank`'s transmissions after the current slot, if it has any. */
static inline void cancel_later(Session *s, Walk *w, i64 rank)
{
    if (s->seen[rank] == s->stamp
        && (!w->has_dups || s->last_pos[rank] >= w->end)) {
        s->cancelled[rank] = s->stamp;
        w->cancel_any = 1;
    }
}

/* Learn `tag` through a record: ack, removal, cancellation, and its
 * pending list onto the cascade's stack. */
static void resolve(Session *s, Walk *w, i32 tag)
{
    s->learned[tag] = 1;
    w->n_resolved++;
    if (s->ack_p == 0.0 || uniform(s) >= s->ack_p) {
        s->removed[s->n_removed++] = tag;
        cancel_later(s, w, s->where[tag]);
    }
    i64 pending = detach(s, tag);
    if (pending < 0)
        return;
    if (grow((void **)&s->stack, &s->stack_cap, s->stack_len + 1,
             sizeof(i64))) {
        s->status = -2;
        return;
    }
    s->stack[s->stack_len++] = pending;
}

/* The resolution cascade from one detached pending list: a worklist
 * fixpoint, O(record visits). */
static void cascade(Session *s, Walk *w, i64 node)
{
    for (;;) {
        for (; node >= 0; node = s->node_next[node]) {
            i32 *rec = s->arena + s->node_rec[node];
            i32 c = rec[0];
            if (c < 2)
                continue;  /* spent */
            rec[0] = c - 1;
            if (c > 2)
                continue;  /* still more than one unknown participant */
            i32 survivor = -1;
            for (i32 j = 2; j < rec[1] + 2; j++) {
                if (!s->learned[rec[j]]) {
                    survivor = rec[j];
                    break;
                }
            }
            rec[0] = 0;
            if (survivor >= 0)  /* else a duplicate residual */
                resolve(s, w, survivor);
        }
        if (s->stack_len == 0)
            return;
        node = s->stack[--s->stack_len];
    }
}

/* Stamp the frame's ranks; returns whether some rank repeats. */
static int stamp_ranks(Session *s, i64 total)
{
    i32 stamp = ++s->stamp;
    int has_dups = 0;
    for (i64 i = 0; i < total; i++) {
        i64 rank = s->ranks[i];
        if (s->seen[rank] == stamp)
            has_dups = 1;
        s->seen[rank] = stamp;
        s->last_pos[rank] = i;
    }
    return has_dups;
}

/* Whether some slot segment repeats a rank (what the repair redraws). */
static int slot_dups(Session *s, const i64 *counts, i64 n_counts)
{
    i64 offset = 0;
    for (i64 i = 0; i < n_counts; i++) {
        i64 k = counts[i];
        if (k >= 2) {
            i32 stamp = ++s->stamp;
            for (i64 j = offset; j < offset + k; j++) {
                if (s->seen[s->ranks[j]] == stamp)
                    return 1;
                s->seen[s->ranks[j]] = stamp;
            }
        }
        offset += k;
    }
    return 0;
}

/* Redraw within-slot duplicate ranks through Python, and only where
 * there are some: the repair draws nothing for a frame without them. */
static int repair_slots(Session *s, const i64 *counts, i64 n_counts,
                        i64 total)
{
    if (slot_dups(s, counts, n_counts)
        && s->repair(counts, n_counts, s->ranks, total) < 0)
        s->status = -1;
    return s->status;
}

/* `total` ranks over [0, n) from the uniform block: floor(u * n), the
 * integers np.multiply(u, n).astype(np.intp) gives. */
static int draw_ranks(Session *s, i64 n, i64 total)
{
    if (grow((void **)&s->ranks, &s->ranks_cap, total, sizeof(i64)))
        return s->status = -2;
    if (reserve(s, total))
        return s->status;
    const double *u = s->buf + s->pos;
    double scale = (double)n;
    for (i64 i = 0; i < total; i++)
        s->ranks[i] = (i64)(u[i] * scale);
    s->pos += total;
    return 0;
}

/* Swap-remove the frame's acked tags from the roster, in ack order. */
static void apply_removals(Session *s)
{
    i64 n_active = s->stats[ST_ACTIVE];
    for (i64 i = 0; i < s->n_removed; i++) {
        i32 tag = s->removed[i];
        i32 position = s->where[tag];
        i32 last = s->items[--n_active];
        s->items[position] = last;
        s->where[last] = position;
    }
    s->n_removed = 0;
    s->stats[ST_ACTIVE] = n_active;
}

/* Walk one frame in slot order: the Python `_replay`. */
static int replay(Session *s, const i64 *counts, i64 n_counts,
                  int has_dups)
{
    const i64 lam = s->lam;
    const double crc_p = s->crc_p, ack_p = s->ack_p;
    const double unusable_p = s->unusable_p, capture_p = s->capture_p;
    const i64 *ranks = s->ranks;
    i32 *items = s->items;
    unsigned char *learned = s->learned;
    i32 *parts = s->parts;
    Walk w = {0, has_dups, 0, 0};
    i64 n_singleton = 0, n_collision = 0, n_reread = 0;
    /* Transmissions beyond the one every singleton-class slot carries. */
    i64 transmissions = 0;
    i64 offset = 0;
    for (i64 i = 0; i < n_counts; i++) {
        i64 k = counts[i];
        if (k == 0)
            continue;
        i64 start = offset;
        offset = w.end = start + k;
        const i64 *seg = ranks + start;
        i64 rank = -1;
        if (k == 1) {
            rank = seg[0];
            if (w.cancel_any && s->cancelled[rank] == s->stamp)
                continue;
        } else if (w.cancel_any) {
            i64 kept = 0;
            for (i64 j = 0; j < k; j++)
                if (s->cancelled[seg[j]] != s->stamp)
                    s->segment[kept++] = seg[j];
            k = kept;
            if (k == 0)
                continue;
            seg = s->segment;
            if (k == 1)
                rank = seg[0];
        }
        i64 n_parts = 0;  /* participants of a record beside the read */
        if (k == 1) {
            if (crc_p != 0.0 && uniform(s) < crc_p) {
                /* CRC failure: an opaque record, counted a collision. */
                transmissions += 1;
                n_collision += 1;
                continue;
            }
        } else if (capture_p != 0.0 && uniform(s) < capture_p) {
            /* Capture: the strongest collider decodes, and the others
             * leave a (k-1)-record. */
            i64 captured = (i64)(uniform(s) * (double)k);
            rank = seg[captured];
            transmissions += k - 1;
            if (k - 1 <= lam
                && (unusable_p == 0.0 || uniform(s) >= unusable_p)) {
                for (i64 j = 0; j < k; j++)
                    if (j != captured)
                        parts[n_parts++] = items[seg[j]];
            }
        } else {
            transmissions += k;
            n_collision += 1;
            if (k > lam || (unusable_p != 0.0 && uniform(s) < unusable_p))
                continue;
            for (i64 j = 0; j < k; j++)
                parts[j] = items[seg[j]];
            if (ack_p == 0.0) {
                /* Every ack received: no transmitting tag is learned, so
                 * the record starts fully unknown. */
                store_record(s, parts, k);
                continue;
            }
            n_parts = k;  /* the record path below, without a read */
        }
        i64 entries = -1;
        if (rank >= 0) {
            /* Read: ack, learn, then the cascade. */
            i32 tag = items[rank];
            n_singleton++;
            if (ack_p == 0.0 || uniform(s) >= ack_p) {
                s->removed[s->n_removed++] = tag;
                if (has_dups && s->last_pos[rank] >= w.end) {
                    s->cancelled[rank] = s->stamp;
                    w.cancel_any = 1;
                }
            }
            if (ack_p != 0.0 && learned[tag])
                n_reread++;
            learned[tag] = 1;
            entries = detach(s, tag);
        }
        /* A record that may hold learned participants: they drop out,
         * and a lone unknown resolves first. */
        i64 n_unknown = 0;
        for (i64 j = 0; j < n_parts; j++)
            if (!learned[parts[j]])
                parts[n_unknown++] = parts[j];
        if (n_unknown > 1)
            store_record(s, parts, n_unknown);
        else if (n_unknown == 1)
            resolve(s, &w, parts[0]);
        if (n_unknown == 1 || entries >= 0)
            cascade(s, &w, entries);
    }
    i64 n_read = n_singleton - n_reread;
    i64 n_empty = n_counts - n_singleton - n_collision;
    i64 *st = s->stats;
    st[ST_EMPTY] = n_empty;
    st[ST_COLLISION] = n_collision;
    st[ST_LEARNED] += n_read + w.n_resolved;
    st[ST_TRANSMISSIONS] += transmissions + n_singleton;
    st[ST_EMPTY_SLOTS] += n_empty;
    st[ST_SINGLETON_SLOTS] += n_singleton;
    st[ST_COLLISION_SLOTS] += n_collision;
    st[ST_READ] += n_read + w.n_resolved;
    st[ST_RESOLVED] += w.n_resolved;
    apply_removals(s);
    return s->status;
}

/* A silent frame, or one without a singleton on a draw-free channel: no
 * tag can be learned, and only its 2 <= k <= lam slots are observable. */
static int record_frame(Session *s, const i64 *counts, i64 frame_size)
{
    i64 lam = s->lam;
    i64 total = 0, record_total = 0, n_records = 0, n_empty = 0;
    if (grow((void **)&s->record_counts, &s->record_counts_cap, frame_size,
             sizeof(i64)))
        return s->status = -2;
    for (i64 i = 0; i < frame_size; i++) {
        i64 k = counts[i];
        total += k;
        n_empty += k == 0;
        if (k <= lam)
            record_total += k;
        if (2 <= k && k <= lam)
            s->record_counts[n_records++] = k;
    }
    if (record_total) {
        if (draw_ranks(s, s->stats[ST_ACTIVE], record_total)
            || repair_slots(s, s->record_counts, n_records, record_total))
            return s->status;
        i64 offset = 0;
        for (i64 r = 0; r < n_records; r++) {
            i64 k = s->record_counts[r];
            for (i64 j = 0; j < k; j++)
                s->parts[j] = s->items[s->ranks[offset + j]];
            offset += k;
            store_record(s, s->parts, k);
        }
    }
    i64 *st = s->stats;
    st[ST_EMPTY] = n_empty;
    st[ST_COLLISION] = frame_size - n_empty;
    st[ST_TRANSMISSIONS] += total;
    st[ST_EMPTY_SLOTS] += n_empty;
    st[ST_COLLISION_SLOTS] += frame_size - n_empty;
    return s->status;
}

/* One frame from its slot counts; `saturated` is p >= 1. */
int fcat_frame(Session *s, const i64 *counts, i64 frame_size, int saturated)
{
    i64 n_active = s->stats[ST_ACTIVE];
    i64 total = 0;
    int singleton = 0;
    for (i64 i = 0; i < frame_size; i++) {
        total += counts[i];
        singleton |= counts[i] == 1;
    }
    if (total == 0 || (s->draw_free && !singleton))
        return record_frame(s, counts, frame_size);
    if (saturated) {
        /* Every active tag in every slot. */
        if (grow((void **)&s->ranks, &s->ranks_cap, total, sizeof(i64)))
            return s->status = -2;
        for (i64 i = 0; i < total; i++)
            s->ranks[i] = i % n_active;
    } else if (draw_ranks(s, n_active, total)) {
        return s->status;
    }
    int has_dups = stamp_ranks(s, total);
    if (has_dups) {
        if (repair_slots(s, counts, frame_size, total))
            return s->status;
        has_dups = stamp_ranks(s, total);
    }
    return replay(s, counts, frame_size, has_dups);
}

/* The termination probe's walk: one slot every active tag transmits in. */
int fcat_probe(Session *s)
{
    i64 n_active = s->stats[ST_ACTIVE];
    if (grow((void **)&s->ranks, &s->ranks_cap, n_active, sizeof(i64)))
        return s->status = -2;
    for (i64 i = 0; i < n_active; i++)
        s->ranks[i] = i;
    stamp_ranks(s, n_active);
    return replay(s, &n_active, 1, 0);
}
