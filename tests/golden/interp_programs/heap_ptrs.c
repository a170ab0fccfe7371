/* Heap records, pointer chains, lock arrays, barriers. */
struct node { int val; double wt; struct node *next; int arr[3]; };
struct node *heads[8];
struct node *pool;
lock_t locks[8];
void worker(int pid)
{
    struct node *n; int r;
    for (r = 0; r < 4; r++) {
        n = heads[pid];
        while (n != 0) {
            n->val = n->val + r;
            n->wt = n->wt * 2;
            n->arr[r % 3] += 1;
            n = n->next;
        }
        lock(&locks[(pid + r) % 8]);
        pool[pid].val += 1;
        (*heads[pid]).arr[0] += pool[(pid + 1) % nprocs()].val;
        unlock(&locks[(pid + r) % 8]);
        barrier();
    }
}
int main()
{
    int p; int k; struct node *m; int s;
    pool = alloc_array(struct node, 8);
    for (p = 0; p < 8; p++) {
        heads[p] = 0;
        for (k = 0; k < 3; k++) {
            m = alloc(struct node);
            m->val = p + k; m->wt = 1; m->next = heads[p];
            heads[p] = m;
        }
    }
    for (p = 0; p < nprocs(); p++) { create(worker, p); }
    wait_for_end();
    s = 0;
    for (p = 0; p < 8; p++) {
        m = heads[p];
        while (m != 0) { s = s + m->val + m->arr[0] + m->arr[1] + m->arr[2]; m = m->next; }
    }
    print(s, heads[1]->wt, pool[2].val);
    return 0;
}
